"""Graph automorphisms: generator search, exact group order, orbits.

The search individualizes vertices inside an equitable partition
refinement, prunes branches whose refinement invariant differs from the
invariant along the first root-to-leaf path, and prunes candidate
vertices lying in the orbit of an already explored sibling under the
generators found so far.  The order of the generated group is computed
with a deterministic Schreier-Sims stabilizer chain, verified level by
level, so the reported order is exact.

Permutations are tuples p of length n with p[i] the image of i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

Perm = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when the automorphism search exceeds its node budget."""


def _mul(a: Perm, b: Perm) -> Perm:
    # (a*b)(x) = a(b(x))
    return tuple(a[x] for x in b)


def _inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def is_automorphism(g: Graph, perm: Perm) -> bool:
    """Brute-force check, independent of the search machinery."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        return False
    for u, v in g.edges:
        if not g.adjacent(perm[u], perm[v]):
            return False
    return True


# ------------------------------------------------------------- refinement


def _refine(adj: list, cells: list[list[int]]) -> tuple[list[list[int]], tuple]:
    """Refine to an equitable partition: every vertex of a cell has the
    same number of neighbors in every cell.  Splitting is driven only by
    those counts, so the procedure commutes with relabeling.

    Each round splits every cell by the vertices' counts of neighbors in
    each current cell, the parts in increasing order of the count vector.
    A vertex's vector is kept sparse, as the negated cell indices of its
    neighbors in increasing cell order; tuples of those compare exactly as
    the dense count vectors do (at the first cell where two counts differ,
    the smaller count runs into a later cell, or the end, first).  Returns
    the cells and the fixpoint's invariant: for each cell its size and the
    vector its vertices share.
    """
    cells = [c for c in cells if c]
    cell_of = [0] * len(adj)

    def vector(v: int) -> tuple:
        return tuple(sorted(map(cell_of.__getitem__, adj[v]), reverse=True))

    while True:
        for i, c in enumerate(cells):
            for v in c:
                cell_of[v] = -i
        new_cells: list[list[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in c:
                groups.setdefault(vector(v), []).append(v)
            if len(groups) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells, tuple((len(c), vector(c[0])) for c in cells)


# ----------------------------------------------------------------- search


def _search_generators(g: Graph, node_budget: int) -> list[Perm]:
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    if n <= 1:
        return []
    ident = tuple(range(n))
    generators: list[Perm] = []
    guide: dict[int, tuple] = {}
    first_leaf: list[Perm | None] = [None]
    nodes = [0]

    def target_index(cells: list[list[int]]) -> int | None:
        best = None
        for i, c in enumerate(cells):
            if len(c) > 1 and (best is None or len(c) < len(cells[best])):
                best = i
        return best

    def orbit_covered(v: int, done: list[int], prefix: tuple[int, ...]) -> bool:
        fixing = [s for s in generators if all(s[p] == p for p in prefix)]
        if not fixing:
            return False
        reach = set(done)
        frontier = list(done)
        while frontier:
            u = frontier.pop()
            for s in fixing:
                w = s[u]
                if w not in reach:
                    if w == v:
                        return True
                    reach.add(w)
                    frontier.append(w)
        return v in reach

    def descend(cells: list[list[int]], inv: tuple, depth: int, prefix: tuple[int, ...]) -> None:
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise SearchBudgetExceeded(f"automorphism search exceeded {node_budget} nodes")
        if depth in guide:
            if inv != guide[depth]:
                return
        else:
            guide[depth] = inv
        ti = target_index(cells)
        if ti is None:
            leaf = tuple(c[0] for c in cells)
            if first_leaf[0] is None:
                first_leaf[0] = leaf
                return
            sigma = [0] * n
            for src, dst in zip(first_leaf[0], leaf):
                sigma[src] = dst
            perm = tuple(sigma)
            if perm != ident and all(perm[v] in adj[perm[u]] for u, v in g.edges):
                generators.append(perm)
            return
        cell = cells[ti]
        done: list[int] = []
        for v in sorted(cell):
            if done and orbit_covered(v, done, prefix):
                continue
            done.append(v)
            rest = [u for u in cell if u != v]
            child = cells[:ti] + [[v], rest] + cells[ti + 1 :]
            descend(*_refine(adj, child), depth + 1, prefix + (v,))

    descend(*_refine(adj, [list(range(n))]), 0, ())
    return generators


# ------------------------------------------------------------ group order


def schreier_sims_order(n: int, generators: list[Perm]) -> int:
    """Exact order of the group generated by the given permutations, via a
    stabilizer chain verified with the Schreier condition at every level."""
    ident = tuple(range(n))
    gens = [tuple(g) for g in generators if tuple(g) != ident]
    if not gens:
        return 1

    base: list[int] = []
    levels: list[list[Perm]] = []  # levels[i]: strong gens fixing base[:i]
    trans: list[dict[int, Perm]] = []

    def smallest_moved(p: Perm) -> int:
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

    def strip(p: Perm, start: int) -> tuple[Perm, int]:
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


# -------------------------------------------------------------- public api


@dataclass(frozen=True)
class AutGroup:
    """Generators and exact order of a graph's automorphism group."""

    n: int
    generators: tuple[Perm, ...]
    order: int


def automorphism_generators(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Perm, ...]:
    """Generators of the automorphism group, without its order."""
    return tuple(_search_generators(g, node_budget))


def automorphism_group(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> AutGroup:
    gens = _search_generators(g, node_budget)
    order = schreier_sims_order(g.n, gens)
    return AutGroup(n=g.n, generators=tuple(gens), order=order)


def vertex_orbits(n: int, generators: list[Perm] | tuple[Perm, ...]) -> list[list[int]]:
    seen = [False] * n
    orbits = []
    for v in range(n):
        if seen[v]:
            continue
        orbit = [v]
        seen[v] = True
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for s in generators:
                w = s[u]
                if not seen[w]:
                    seen[w] = True
                    orbit.append(w)
                    frontier.append(w)
        orbits.append(sorted(orbit))
    return orbits


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


def is_distance_transitive(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET, *, aut: AutGroup | None = None
) -> bool:
    """True when for every distance m the ordered pairs at distance m form
    a single orbit of the automorphism group.  A group already computed
    for g may be passed as aut; otherwise only its generators are searched."""
    from .graph import distances

    dd = distances(g)
    if not dd.connected:
        return False
    gens = aut.generators if aut else automorphism_generators(g, node_budget)
    for m in range(1, dd.diameter + 1):
        pairs = dd.pairs_at_distance(m)
        if not pairs:
            continue
        if pair_orbit(g.n, gens, pairs[0]) != set(pairs):
            return False
    return True


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
    gens = _search_generators(union, node_budget)
    for v in sorted(
        x for orbit in vertex_orbits(union.n, gens) if 0 in orbit for x in orbit
    ):
        if v >= shift:
            return True
    return False


def are_isomorphic(g: Graph, h: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    from .graph import is_connected

    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if is_connected(g) and is_connected(h):
        return _connected_isomorphic(g, h, node_budget)
    return _components_isomorphic(g, h, node_budget)


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
