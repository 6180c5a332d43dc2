"""Independent reimplementations used as test oracles.

Everything here is deliberately written with different algorithms than
the package: Floyd-Warshall instead of BFS, explicit cycle enumeration
instead of cross-edge detection, full permutation filtering instead of
refinement search, a Schreier-Sims chain instead of the search tree's
base, pair_orbit's sweep of ordered pairs instead of the orbits of the
generators fixing each root on its spheres, sphere and pairs_at_distance
reads of single distances instead of sphere bitmasks.  Slow is fine;
these run on small graphs only.  are_isomorphic is one exception: it
calls the package's search (see its docstring).  The references are the others:
earlier versions of package code, kept to pin the results of the faster
code that replaced them.  pair_search_reference is the engine's pair
search before it went over bitmasks, with its budget charges, and
witness_valid_reference the witness test before it counted by popcount,
a scan of the sphere around the witness;
search_generators_reference the generator search before it returned to
the first path, which automorphism_group_reference wraps as a group;
intersection_array_reference the array before it counted by bitmasks,
srg_params_reference the strongly regular parameters before they
were read off the array, a sweep of all vertex pairs,
clique_number_reference the clique search before it went over neighbor
bitmasks and one root per vertex orbit, a set-based branch and bound
over the whole graph; refine_reference the equitable refinement before it
went incremental, each round recounting every vertex against every cell,
which the reference search runs; to_graph6_reference the graph6
encoder before it read neighbor bitmasks, one adjacency test per vertex
pair; and from_graph6_reference the graph6 decoder before it ran the
encoder backwards, one Python step per bit.
vertex_orbits_reference lists a group's vertex orbits by breadth-first
search, for the tests that sweep one root per orbit.
oracle_inputs is the shared graph set they are checked on, and
latin_square_inputs a set of graphs on which refinement alone splits
nothing, so that the search's node test prunes.
"""

from itertools import combinations, permutations
from math import prod
from operator import eq
from random import Random

from drgcert.autgroup import (
    DEFAULT_NODE_BUDGET,
    AutGroup,
    Perm,
    SearchBudgetExceeded,
    _orbit,
    automorphism_group,
)
from drgcert.certify import _PAIR_FIELDS, _PIVOT_SIZES, RULE_PIVOT
from drgcert.drg import IntersectionArray, NotDistanceRegular, SrgParams
from drgcert.expected import load_tables
from drgcert.families import build
from drgcert.graph import (
    DisconnectedGraphError,
    Graph,
    complement,
    distances,
    is_connected,
    line_graph,
)
from drgcert.io import _G6_MAX, _G6_MAX_SMALL, _g6_header

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


# the graphs of the benchmark workloads (perfbench/run.py)
BENCHMARK_GRAPHS = (
    "named:foster", "named:biggs_smith", "named:hoffman_singleton", "odd:5", "hamming:4:3",
    "paley:89", "paley:101", "paley:109", "kneser:10:2", "johnson:10:2",
    "paley:17", "hamming:3:3", "hamming:3:4", "crown:10", "complete:12",
    "complete_bipartite:8", "cube:5", "named:clebsch",
)
ORACLE_SEED = 606001


def catalogue_keys() -> list[str]:
    """The family keys of the benchmark graphs and the table rows, once each."""
    tables = load_tables()
    rows = [row.key for row in tables.cubic_rows() + tables.small_rows()]
    return list(dict.fromkeys(BENCHMARK_GRAPHS + tuple(rows)))


def oracle_inputs():
    """(label, graph): the catalogue graphs of the benchmark and the tables;
    seeded random graphs on at most 14 vertices with their complements,
    line graphs and two-copy disjoint unions; seeded circulants, which are
    vertex-transitive; and the graphs on one and two vertices."""
    for key in catalogue_keys():
        yield key, build(key)
    rng = Random(ORACLE_SEED)
    for i in range(150):
        g = random_connected_graph(rng, rng.randint(2, 14))
        union = Graph(2 * g.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges])
        yield f"random {i}", g
        yield f"complement of random {i}", complement(g)
        yield f"line graph of random {i}", line_graph(g)
        yield f"two copies of random {i}", union
    for i in range(60):
        n = rng.randint(3, 14)
        steps = {s for s in range(1, n) if rng.random() < 0.4} or {1}
        edges = {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps}
        yield f"circulant {i}", Graph(n, sorted(edges))
    yield "K_1", Graph(1)
    yield "K_2", Graph(2, [(0, 1)])


LATIN_SEED = 20261020


def random_latin_square(rng: Random, n: int) -> list[list[int]]:
    """A Latin square of order n, filled row by row, cell by cell, with
    the symbols the row and column leave free in random order, backtracking
    where none is left."""
    square = [[-1] * n for _ in range(n)]

    def fill(k: int) -> bool:
        if k == n * n:
            return True
        r, c = divmod(k, n)
        used = set(square[r][:c]) | {square[i][c] for i in range(r)}
        free = [s for s in range(n) if s not in used]
        rng.shuffle(free)
        for s in free:
            square[r][c] = s
            if fill(k + 1):
                return True
        square[r][c] = -1
        return False

    fill(0)
    return square


def latin_square_graph(square) -> Graph:
    """The Latin-square graph: vertex n*r + c is the cell (r, c), and two
    cells are adjacent when they share a row, a column or a symbol.  It is
    strongly regular, SRG(n^2, 3(n - 1), n, 6), so refinement splits
    nothing at the root."""
    n = len(square)
    cells = [(r, c, square[r][c]) for r in range(n) for c in range(n)]
    return Graph(
        n * n,
        [(u, v) for v in range(n * n) for u in range(v) if any(map(eq, cells[u], cells[v]))],
    )


def latin_square_inputs():
    """(label, graph): the Latin-square graphs of seeded random Latin
    squares, three each of orders 5 and 6 and two of order 7, whose
    searches take longest."""
    rng = Random(LATIN_SEED)
    for n, count in ((5, 3), (6, 3), (7, 2)):
        for i in range(count):
            yield f"latin {n} {i}", latin_square_graph(random_latin_square(rng, n))


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


def vertex_orbits_reference(n: int, generators) -> list[list[int]]:
    """The orbits of the generated group on 0..n-1, each sorted, in order of
    their least vertex: a breadth-first search from each unseen vertex."""
    orbits, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        seen.add(v)
        orbit, queue = [v], [v]
        for u in queue:
            for s in generators:
                if s[u] not in seen:
                    seen.add(s[u])
                    orbit.append(s[u])
                    queue.append(s[u])
        orbits.append(sorted(orbit))
    return orbits


def sphere(dd, v: int, m: int) -> list[int]:
    """The vertices at distance m from v, one distance read at a time."""
    return [w for w in range(len(dd.sphere_masks)) if dd.d(v, w) == m]


def pairs_at_distance(dd, m: int) -> list[tuple[int, int]]:
    """The ordered pairs (u, v) with d(u, v) == m, lexicographically."""
    return [(u, v) for u in range(len(dd.sphere_masks)) for v in sphere(dd, u, m)]


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
    orbit = next(o for o in vertex_orbits_reference(union.n, gens) if 0 in o)
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


def witness_valid_reference(dd, m: int, j: int, l: int, p: int, q: int, bud=None) -> bool:
    """The witness q kills rival p for the pair (j, l): q separates j from
    p, and l is the only vertex at distance d(q,l) from q lying at distance
    m from both j and p.  The engine passes its budget, charged 2 for the
    separation test and 2 per sphere vertex for the count."""
    if bud is not None:
        bud.spend(2)
    if dd.d(j, q) == dd.d(q, p):
        return False
    around = sphere(dd, q, dd.d(q, l))
    if bud is not None:
        bud.spend(2 * len(around))
    count = 0
    for x in around:
        if dd.d(x, j) == m and dd.d(x, p) == m:
            count += 1
            if count > 1:
                return False
    return count == 1


def first_witness_reference(dd, m: int, j: int, l: int, p: int, bud) -> int | None:
    """The least witness of rival p for the pair (j, l), testing every
    candidate q in turn."""
    n = len(dd.sphere_masks)
    return next((q for q in range(n) if witness_valid_reference(dd, m, j, l, p, q, bud)), None)


def pair_search_reference(dd, m, j, l, certified, bud, rule) -> dict | None:
    """The engine's pair search one pivot combination at a time: each
    combination is charged to the budget, then tested against every
    unkilled rival by distance lookups."""
    n = len(dd.sphere_masks)
    rivals = [p for p in sphere(dd, l, m) if p != j]
    witness = {}
    if "witnesses" in _PAIR_FIELDS[rule]:
        for p in rivals:
            witness[p] = first_witness_reference(dd, m, j, l, p, bud)
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


def refine_reference(adj: list, cells: list[list[int]]) -> tuple[list[list[int]], tuple]:
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


def search_generators_reference(
    g: Graph, node_budget: int
) -> tuple[list[Perm], tuple[int, ...]]:
    """The package's generator search as it was before it returned to the
    first path: a subtree off the first path is searched to the end, so it
    may yield many generators where one suffices.  Returns the generators
    and the base, the vertices individualized along the first
    root-to-leaf path."""
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    ident = tuple(range(n))
    generators: list[Perm] = []
    guide: dict[int, tuple] = {}
    first_leaf: Perm | None = None
    base: tuple[int, ...] = ()
    nodes = [0]

    def target_index(cells: list[list[int]]) -> int | None:
        best = None
        for i, c in enumerate(cells):
            if len(c) > 1 and (best is None or len(c) < len(cells[best])):
                best = i
        return best

    def descend(cells: list[list[int]], inv: tuple, depth: int, prefix: tuple[int, ...]) -> None:
        nonlocal first_leaf, base
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
            if first_leaf is None:
                first_leaf, base = leaf, prefix
                return
            sigma = [0] * n
            for src, dst in zip(first_leaf, leaf):
                sigma[src] = dst
            perm = tuple(sigma)
            if perm != ident and all(perm[v] in adj[perm[u]] for u, v in g.edges):
                generators.append(perm)
            return
        cell = cells[ti]
        done: list[int] = []
        # a subset of the orbit of done, recomputed only when it misses
        covered: set[int] = set()
        for v in sorted(cell):
            if done and v not in covered:
                covered = _orbit(generators, prefix, done)
            if v in covered:
                continue
            done.append(v)
            rest = [u for u in cell if u != v]
            child = cells[:ti] + [[v], rest] + cells[ti + 1 :]
            descend(*refine_reference(adj, child), depth + 1, prefix + (v,))

    descend(*refine_reference(adj, [list(range(n))]), 0, ())
    return generators, base


def automorphism_group_reference(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> AutGroup:
    """automorphism_group with the generators and base of the reference
    search, and the order read off them."""
    gens, base = search_generators_reference(g, node_budget)
    order = prod(len(_orbit(gens, base[:i], [b])) for i, b in enumerate(base))
    return AutGroup(n=g.n, generators=tuple(gens), base=base, order=order)


def intersection_array_reference(g: Graph, dd=None):
    """drg.intersection_array as it was before it counted by bitmasks: b_i
    and c_i of each pair (v, w) by a sweep of the neighbors of w."""
    if dd is None:
        dd = distances(g)
    if not dd.connected:
        raise DisconnectedGraphError("intersection array requires a connected graph")
    if g.n <= 1:
        return NotDistanceRegular(witness=(0, 0), reason="trivial graph")
    k = g.regular_degree()
    if k is None:
        degs = g.degrees()
        v = min(range(g.n), key=lambda x: degs[x])
        w = max(range(g.n), key=lambda x: degs[x])
        return NotDistanceRegular(witness=(v, w), reason="not regular")
    d = dd.diameter
    b = [None] * d
    c = [None] * d
    for v in range(g.n):
        drow = dd.row(v)
        for w in range(g.n):
            i = drow[w]
            if i == 0:
                continue
            bi = sum(1 for x in g.neighbors(w) if drow[x] == i + 1)
            ci = sum(1 for x in g.neighbors(w) if drow[x] == i - 1)
            if i < d:
                if b[i] is None:
                    b[i] = bi
                elif b[i] != bi:
                    return NotDistanceRegular(
                        witness=(v, w), reason=f"b_{i} not constant"
                    )
            elif bi != 0:
                return NotDistanceRegular(witness=(v, w), reason="b_d nonzero")
            if c[i - 1] is None:
                c[i - 1] = ci
            elif c[i - 1] != ci:
                return NotDistanceRegular(witness=(v, w), reason=f"c_{i} not constant")
    b[0] = k
    return IntersectionArray(b=tuple(b), c=tuple(c))


def srg_params_reference(g: Graph):
    """drg.srg_params as it was before it read lambda and mu off the
    intersection array: both counted over every vertex pair."""
    dd = distances(g)
    if not dd.connected or dd.diameter != 2:
        return None
    k = g.regular_degree()
    if k is None:
        return None
    lam = None
    mu = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            count = len(g.neighbors(u) & g.neighbors(v))
            if g.adjacent(u, v):
                if lam is None:
                    lam = count
                elif lam != count:
                    return None
            else:
                if mu is None:
                    mu = count
                elif mu != count:
                    return None
    return SrgParams(n=g.n, k=k, lam=lam, mu=mu)


def clique_number_reference(g: Graph) -> int:
    """Exact maximum clique size, branch and bound with a coloring bound."""
    if g.n == 0:
        return 0
    best = 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def expand(size, cand):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        # Greedy coloring of the candidate set; color index bounds the
        # largest clique extension available from each vertex onward.
        color_of = {}
        color_classes = []
        for v in cand:
            for ci, cls in enumerate(color_classes):
                if not (nbrs[v] & cls):
                    cls.add(v)
                    color_of[v] = ci + 1
                    break
            else:
                color_classes.append({v})
                color_of[v] = len(color_classes)
        ordered = sorted(cand, key=lambda v: color_of[v])
        while ordered:
            v = ordered.pop()
            if size + color_of[v] <= best:
                return
            expand(size + 1, [w for w in ordered if w in nbrs[v]])

    expand(0, order)
    return best


def to_graph6_reference(g: Graph) -> str:
    """Encode as graph6: upper-triangle bits in column-major order, 6 per byte."""
    n = g.n
    out = bytearray(_g6_header(n))
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.adjacent(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6_reference(text: str) -> Graph:
    """Decode a graph6 string; malformed length or padding is an error."""
    data = text.strip().encode("ascii")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == 126:
        if data[1:2] == b"~":  # the 8-byte form, for n above the 18-bit form's range
            raise ValueError(f"graph6 supports at most {_G6_MAX} vertices here")
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        vals = [b - 63 for b in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ValueError("invalid graph6 header byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        body = data[4:]
    else:
        n = data[0] - 63
        if n < 0 or n > _G6_MAX_SMALL:
            raise ValueError("invalid graph6 header byte")
        body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for b in body:
        v = b - 63
        if v < 0 or v > 63:
            raise ValueError("invalid graph6 body byte")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)
