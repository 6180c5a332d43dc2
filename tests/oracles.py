"""Independent reimplementations used as test oracles.

Everything here is deliberately written with different algorithms than
the package: Floyd-Warshall instead of BFS, explicit cycle enumeration
instead of cross-edge detection, full permutation filtering instead of
refinement search, a Schreier-Sims chain instead of the search tree's
base, pair_orbit's sweep of ordered pairs instead of the orbits of the
generators fixing vertex 0 on its spheres.  Slow is fine; these run on
small graphs only.  are_isomorphic is the exception: it calls the
package's search (see its docstring), and so is pair_search_reference,
the engine's pair search as it was before it went over bitmasks, kept to
pin the engine's results and budget charges.
"""

from itertools import combinations, permutations
from random import Random

from drgcert.autgroup import DEFAULT_NODE_BUDGET, Perm, automorphism_group, vertex_orbits
from drgcert.certify import _PAIR_FIELDS, _PIVOT_SIZES, RULE_PIVOT, _witness_valid
from drgcert.graph import Graph, is_connected

INF = float("inf")


def floyd_warshall(g: Graph):
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def enumerate_girth(g: Graph):
    """Shortest cycle length by enumerating simple cycles.

    Cycles are generated from their smallest vertex s by extending simple
    paths through vertices larger than s; a path of length >= 2 whose end
    is adjacent to s closes a cycle.  Paths at the current best length
    are pruned.
    """
    best = None

    def extend(s, path, on_path):
        nonlocal best
        v = path[-1]
        if best is not None and len(path) >= best:
            return
        for w in g.neighbors(v):
            if w == s and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif w > s and w not in on_path:
                on_path.add(w)
                path.append(w)
                extend(s, path, on_path)
                path.pop()
                on_path.remove(w)

    for s in range(g.n):
        extend(s, [s], {s})
    return best


def brute_automorphism_count(g: Graph) -> int:
    """Count adjacency-preserving permutations one by one.  n <= 8."""
    if g.n > 8:
        raise ValueError("brute force capped at 8 vertices")
    edges = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    count = 0
    for p in permutations(range(g.n)):
        if all((p[u], p[v]) in edges for u, v in g.edges):
            count += 1
    return count


def recount_distance_regular(g: Graph) -> bool:
    """Distance-regularity by tabulating (c, a, b) for every vertex pair."""
    n = g.n
    if n == 0:
        return False
    dist = floyd_warshall(g)
    if any(dist[0][j] == INF for j in range(n)):
        return False
    degrees = {len(g.neighbors(v)) for v in range(n)}
    if len(degrees) != 1:
        return False
    seen = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            i = dist[u][v]
            c = a = b = 0
            for w in g.neighbors(v):
                if dist[u][w] == i - 1:
                    c += 1
                elif dist[u][w] == i:
                    a += 1
                else:
                    b += 1
            if i in seen and seen[i] != (c, a, b):
                return False
            seen[i] = (c, a, b)
    return True


def random_connected_graph(rng: Random, n: int) -> Graph:
    """Connected G(n, p) sample; p varies so sparse and dense cases occur."""
    while True:
        p = rng.uniform(0.25, 0.75)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        stack, seen = [0], {0}
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            return g


def _mul(a, b):
    # (a*b)(x) = a(b(x))
    return tuple(a[x] for x in b)


def _inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def schreier_sims_order(n: int, generators) -> int:
    """Exact order of the group generated by the given permutations, via a
    stabilizer chain verified with the Schreier condition at every level.

    Independent of the package's search: it takes any generating set and
    chooses its own base, where the package reads the order off the base
    and generators of its search tree."""
    ident = tuple(range(n))
    gens = [tuple(g) for g in generators if tuple(g) != ident]
    if not gens:
        return 1

    base: list[int] = []
    levels: list[list] = []  # levels[i]: strong gens fixing base[:i]
    trans: list[dict] = []

    def smallest_moved(p) -> int:
        return min(i for i in range(n) if p[i] != i)

    def add_base_point(b: int) -> None:
        base.append(b)
        levels.append([])
        trans.append({b: ident})

    def close_orbit(i: int) -> None:
        t = {base[i]: ident}
        frontier = [base[i]]
        while frontier:
            p = frontier.pop()
            tp = t[p]
            for s in levels[i]:
                q = s[p]
                if q not in t:
                    t[q] = _mul(s, tp)
                    frontier.append(q)
        trans[i] = t

    def strip(p, start: int):
        lvl = start
        while lvl < len(base):
            img = p[base[lvl]]
            if img not in trans[lvl]:
                return p, lvl
            p = _mul(_inv(trans[lvl][img]), p)
            lvl += 1
        return p, lvl

    for g in gens:
        i = 0
        while i < len(base) and g[base[i]] == base[i]:
            i += 1
        if i == len(base):
            add_base_point(smallest_moved(g))
        for k in range(i + 1):
            levels[k].append(g)
    for i in range(len(base)):
        close_orbit(i)

    # verify the Schreier condition bottom-up, adding residues as new
    # strong generators until every level is complete
    i = len(base) - 1
    while i >= 0:
        restart = False
        for p, tp in list(trans[i].items()):
            for s in levels[i]:
                rep = trans[i][s[p]]
                schreier = _mul(_inv(rep), _mul(s, tp))
                if schreier == ident:
                    continue
                h, j = strip(schreier, i + 1)
                if h == ident:
                    continue
                if j == len(base):
                    add_base_point(smallest_moved(h))
                for k in range(i + 1, j + 1):
                    levels[k].append(h)
                    close_orbit(k)
                i = j
                restart = True
                break
            if restart:
                break
        if not restart:
            i -= 1

    order = 1
    for t in trans:
        order *= len(t)
    return order


def pair_orbit(
    n: int, generators: list[Perm] | tuple[Perm, ...], start: tuple[int, int]
) -> set[tuple[int, int]]:
    """Orbit of an ordered vertex pair under the generated group."""
    seen = {start}
    frontier = [start]
    while frontier:
        u, v = frontier.pop()
        for s in generators:
            img = (s[u], s[v])
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def are_isomorphic(g: Graph, h: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Isomorphism by searching the automorphisms of the disjoint union.

    Unlike the other oracles this calls the package's generator search
    (through automorphism_group), so it is a reference for the family
    constructors, not an independent check of the search itself."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if is_connected(g) and is_connected(h):
        return _connected_isomorphic(g, h, node_budget)
    return _components_isomorphic(g, h, node_budget)


def _connected_isomorphic(g: Graph, h: Graph, node_budget: int) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    # search the disjoint union: the two sides fuse into one orbit exactly
    # when the components are isomorphic
    shift = g.n
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    union = Graph(g.n + h.n, edges)
    gens = automorphism_group(union, node_budget).generators
    orbit = next(o for o in vertex_orbits(union.n, gens) if 0 in o)
    return any(v >= shift for v in orbit)


def _components(g: Graph) -> list[Graph]:
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comp.sort()
        relabel = {v: i for i, v in enumerate(comp)}
        edges = [(relabel[u], relabel[v]) for u, v in g.edges if u in relabel]
        out.append(Graph(len(comp), edges))
    return out


def _components_isomorphic(g: Graph, h: Graph, node_budget: int) -> bool:
    gs = sorted(_components(g), key=lambda c: (c.n, c.num_edges))
    hs = sorted(_components(h), key=lambda c: (c.n, c.num_edges))
    if [(c.n, c.num_edges) for c in gs] != [(c.n, c.num_edges) for c in hs]:
        return False
    remaining = list(hs)
    for comp in gs:
        for i, cand in enumerate(remaining):
            if _connected_isomorphic(comp, cand, node_budget):
                del remaining[i]
                break
        else:
            return False
    return True


def pair_search_reference(dd, m, j, l, certified, bud, rule) -> dict | None:
    """The engine's pair search one pivot combination at a time: each
    combination is charged to the budget, then tested against every
    unkilled rival by distance lookups."""
    n = len(dd.dist)
    rivals = [p for p in dd.at_distance(l, m) if p != j]
    witness = {}
    if "witnesses" in _PAIR_FIELDS[rule]:
        for p in rivals:
            witness[p] = next(
                (q for q in range(n) if _witness_valid(dd, m, j, l, p, q, bud)), None
            )
    unkilled = [p for p in rivals if witness.get(p) is None]
    if rule == RULE_PIVOT:
        bud.spend(n)  # the pivot-only rule pays for its eligible list

    def pinned(pivots):
        left = [
            p
            for p in rivals
            if witness.get(p) is not None and all(dd.d(p, q) == dd.d(j, q) for q in pivots)
        ]
        return {"pivots": list(pivots), "witnesses": [[p, witness[p]] for p in left]}

    sizes = _PIVOT_SIZES[rule]
    if not unkilled and 0 not in sizes:
        return pinned(())
    eligible = [q for q in range(n) if dd.d(q, l) in certified]
    for size in sizes:
        for pivots in combinations(eligible, size):
            bud.spend(2 * size * len(rivals) + 1)
            if not any(all(dd.d(p, q) == dd.d(j, q) for q in pivots) for p in unkilled):
                return pinned(pivots)
    return None
