"""Graph automorphisms: generator search, exact group order, orbits.

The search individualizes vertices inside an equitable partition
refinement.  The refinement is incremental: each round recounts
neighbors only against the cells the last round split, less the last
part of each, and a child node starts from its one new singleton cell;
yet it gives the cells and their order that recounting against every
cell gives.  A round counts by walking the neighbor lists of those cells
or by popcounts of neighbor masks against a mask per cell, whichever its
sizes say is cheaper, with the same result.  The search prunes nodes
whose shape, the cell sizes in order, differs from the shape of the
first root-to-leaf path's node at the same depth, prunes candidate
vertices lying in the orbit of an already explored sibling under the
generators found so far, and returns to the first path as soon as a
subtree off it yields a generator (McKay and Piperno, arXiv:1301.1493).
It records at most one generator per explored child of a first-path
node.  The first root-to-leaf path is a base and the generators found
are a strong generating set for it, so the exact group order and
distance-transitivity are read off orbits of the generators; no
stabilizer chain is built.

Permutations are tuples p of length n with p[i] the image of i.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from math import prod
from operator import ne

from .graph import DistanceData, Graph, _adjacency, _bits, distances

Perm = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when the automorphism search exceeds its node budget."""


def is_automorphism(g: Graph, perm) -> bool:
    """Whether perm is a list or tuple of ints (bools are not ints here)
    that permutes 0..n-1 and maps every edge of g to an edge, tested on
    the neighbor bitmasks.  Any other value is False, never an error, so
    the audit can hand it a recorded permutation as it was read."""
    if not (
        isinstance(perm, (list, tuple))
        and len(perm) == g.n
        and all(type(x) is int for x in perm)
        and sorted(perm) == list(range(g.n))
    ):
        return False
    return _maps_edges(g, perm)


def _maps_edges(g: Graph, perm) -> bool:
    """Whether the permutation perm of g's vertices maps every edge of g
    to an edge, tested on the neighbor bitmasks."""
    masks = g.masks
    return all(masks[perm[u]] >> perm[v] & 1 for u, v in g.edges)


# ------------------------------------------------------------- refinement


def _split_by_walk(
    adj: tuple, cells: list[list[int]], cell_of: list[int], pushed: list[int]
) -> dict:
    """One round's splits, counted sparsely: -p is appended, for each pushed
    p in turn, to the hit list of every neighbor of every vertex of cell p,
    so a vertex's hit list is its count vector over the pushed cells in the
    sparse form _refine describes.  Only a cell holding a hit vertex is
    grouped; the others cannot split."""
    hits: dict[int, list[int]] = defaultdict(list)
    for p in pushed:
        key = -p
        for u in cells[p]:
            for w in adj[u]:
                hits[w].append(key)
    splits: dict[int, list[list[int]]] = {}
    for i in {-cell_of[w] for w in hits}:
        if len(cells[i]) > 1:
            groups: dict[tuple, list[int]] = {}
            for v in cells[i]:
                groups.setdefault(tuple(hits.get(v, ())), []).append(v)
            if len(groups) > 1:
                splits[i] = [groups[sig] for sig in sorted(groups)]
    return splits


def _split_by_count(masks: tuple, cells: list[list[int]], pushed: list[int]) -> dict:
    """One round's splits, counted densely: each pushed cell gets a
    bitmask, and each vertex of a cell of two or more vertices is keyed by
    the popcounts of its neighbor mask ANDed with those, in pushed order."""
    pushed_masks = [sum(1 << u for u in cells[p]) for p in pushed]
    splits: dict[int, list[list[int]]] = {}
    for i, c in enumerate(cells):
        if len(c) > 1:
            groups: dict[tuple, list[int]] = {}
            for v in c:
                mask = masks[v]
                key = tuple([(mask & pm).bit_count() for pm in pushed_masks])
                groups.setdefault(key, []).append(v)
            if len(groups) > 1:
                splits[i] = [groups[key] for key in sorted(groups)]
    return splits


def _refine(g: Graph, cells: list[list[int]], pushed: list[int]) -> list[list[int]]:
    """Refine to an equitable partition of g: every vertex of a cell has
    the same number of neighbors in every cell.  Splitting is driven only
    by those counts, so the procedure commutes with relabeling: relabeled
    cells refine to the relabeled fixpoint, whose shape, the cell sizes in
    order, is the same, and the shape is what the search compares.

    Each round splits every cell by the vertices' counts of neighbors in
    each current cell, the parts in place and in increasing order of the
    dense count vector, compared lexicographically in cell order.  A round
    that splits nothing is the fixpoint, whose cells are returned.

    A round recounts only against the cells in pushed, given in increasing
    order.  A round splits the cells by the counts into the cells before it,
    so after it every cell has constant counts into every cell from before
    it.  Each cell C the round split is now a run of parts C_1, ..., C_k,
    and a vertex's count into the last part C_k is its count into C,
    constant on its cell, less its counts into C_1, ..., C_{k-1}.  So two
    vertices of one cell whose vectors agree up to C_k agree at C_k too, and
    the first cell where they differ is never a last part: the next round
    pushes the parts of each split cell but the last.  The vectors
    restricted to the pushed cells then differ first at the same cell, by
    the same counts, so they group and order the vertices of a cell exactly
    as the full vectors do.  The first round needs the same fact from the
    caller.  One that individualizes v in cell i of an equitable partition,
    as cells[:i] + [[v], rest] + cells[i+1:], passes [i]: each new cell has
    constant counts into the old ones, of which cell i alone was split,
    into [v] and the last part rest.  The search root pushes every one of
    its starting cells, which recounts against all of them.

    A round counts in one of two ways.  _split_by_walk builds each
    vertex's restricted vector sparsely, as the negated indices of the
    pushed cells of its neighbors in increasing cell order: at the first
    cell where two counts differ, the smaller count runs into a later
    cell, or the end, first, so these tuples compare as the dense vectors
    do.  _split_by_count builds it densely, as a tuple of popcounts.  So
    both give the same parts in the same order.  Walking costs an append
    per neighbor of a vertex of a pushed cell, counting a popcount per
    vertex of a cell of two or more and pushed cell; each round takes the
    cheaper, estimated from its sizes and g's mean degree.
    """
    adj, masks, n = _adjacency(g), g.masks, g.n
    degree = 2 * len(g.edges) / n if n else 0
    cells = [c for c in cells if c]
    cell_of = [0] * n  # minus the index of the vertex's cell
    for i, c in enumerate(cells):
        for v in c:
            cell_of[v] = -i
    free = sum(len(c) for c in cells if len(c) > 1)  # vertices not yet singletons
    reach = sum(len(cells[p]) for p in pushed)  # vertices of the pushed cells
    while pushed and free:
        if reach * degree > free * len(pushed):
            splits = _split_by_count(masks, cells, pushed)
        else:
            splits = _split_by_walk(adj, cells, cell_of, pushed)
        new_cells: list[list[int]] = []
        pushed = []
        done = reach = 0
        for i in sorted(splits):
            parts = splits[i]
            sizes = list(map(len, parts))
            new_cells += cells[done:i]
            pushed += range(len(new_cells), len(new_cells) + len(parts) - 1)
            new_cells += parts
            free -= sizes.count(1)
            reach += sum(sizes) - sizes[-1]
            done = i + 1
        cells = new_cells + cells[done:]
        for i in range(min(splits, default=len(cells)), len(cells)):
            for v in cells[i]:
                cell_of[v] = -i
    return cells


# ----------------------------------------------------------------- search


def _orbit(generators, prefix: tuple[int, ...], starts) -> set[int]:
    """Orbit of the vertices starts under the generators that fix every
    vertex of prefix."""
    fixing = [s for s in generators if all(s[p] == p for p in prefix)]
    reach = set(starts)
    frontier = list(reach)
    while frontier:
        u = frontier.pop()
        for s in fixing:
            w = s[u]
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    return reach


def _search_generators(
    g: Graph, node_budget: int, cells: list[list[int]] | None = None, first: bool = False
) -> tuple[list[Perm], tuple[int, ...]]:
    """Generators found by the search, and the base: the vertices
    individualized along the first root-to-leaf path.  The search starts
    from cells, nonempty and covering the vertices, or from one cell of
    all vertices; refinement keeps the parts of a cell in its place, so
    every leaf lists each starting cell's vertices at the same positions,
    and the generators map each starting cell to itself.  With first, the
    search stops at its first generator, which is the one a full search
    finds first.

    A node is pruned when its shape, the sizes of its cells in order,
    differs from the shape of the first path's node at the same depth.
    Refinement commutes with relabeling, so an automorphism maps a node
    to one of the same shape, and a pruned node holds no image of the
    first leaf.  A leaf of the first path's depth has that leaf's shape,
    so the edge test decides it."""
    n = g.n
    ident = tuple(range(n))
    generators: list[Perm] = []
    guide: dict[int, list[int]] = {}
    first_leaf: Perm | None = None
    base: tuple[int, ...] = ()
    nodes = [0]

    def descend(cells: list[list[int]], depth: int, prefix: tuple[int, ...]) -> bool:
        """Search below prefix unless the node's shape differs from the
        guide's at its depth; True when the subtree yielded a generator."""
        nonlocal first_leaf, base
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise SearchBudgetExceeded(f"automorphism search exceeded {node_budget} nodes")
        shape = list(map(len, cells))
        if guide.setdefault(depth, shape) != shape:
            return False
        if len(cells) == n:
            leaf = tuple(c[0] for c in cells)
            if first_leaf is None:
                first_leaf, base = leaf, prefix
                return False
            sigma = [0] * n
            for src, dst in zip(first_leaf, leaf):
                sigma[src] = dst
            perm = tuple(sigma)
            if perm != ident and _maps_edges(g, perm):
                generators.append(perm)
                return True
            return False
        # the first of the smallest cells of two or more vertices
        ti = shape.index(min(size for size in shape if size > 1))
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
            # off the first path, one generator is all a subtree can add
            if descend(_refine(g, child, [ti]), depth + 1, prefix + (v,)) and (
                first or prefix != base[:depth]
            ):
                return True
        return False

    if cells is None:
        cells = [list(range(n))] if n else []  # the empty graph has no cell
    descend(_refine(g, cells, list(range(len(cells)))), 0, ())
    return generators, base


# -------------------------------------------------------------- public api


@dataclass(frozen=True)
class AutGroup:
    """Generators, base and exact order of a graph's automorphism group.

    The generators that fix base[:i] pointwise generate the stabilizer of
    base[:i] in the group, for every i.
    """

    n: int
    generators: tuple[Perm, ...]
    base: tuple[int, ...]
    order: int


def automorphism_group(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> AutGroup:
    """The automorphism group, read off one search tree.

    The order is the product over i of the orbit length of base[i] under
    the generators fixing base[:i].  It is exact because those generators
    generate G_i, the pointwise stabilizer of base[:i] (McKay and Piperno,
    arXiv:1301.1493).  By induction from the leaf up, let the generators
    fixing base[:i+1] generate G_{i+1}, and let w be in the G_i-orbit of
    base[i].  At the first path's node for base[:i], the child w is either
    pruned, as the image of an explored child in the same orbit under
    generators fixing base[:i], or explored.  An explored subtree holds an
    image of the first leaf under G_i, and the search of a subtree reaches
    such a leaf whenever one is there, since a child pruned below it is
    the image of an explored sibling; the leaf yields a generator fixing
    base[:i] that maps base[i] to w.  So the generators fixing base[:i]
    reach the whole G_i-orbit of base[i] and generate its stabilizer
    G_{i+1}, hence generate G_i.

    The third pruning rule returns to the first path: once a subtree off
    it yields a generator, the search leaves that subtree and every one
    above it up to the first path's node for base[:i], which goes on to
    its next child.  Below that node's child w, a leaf that yields an
    automorphism maps base[:i+1] to base[:i] + (w,), so it is sigma*h for
    the generator sigma found there and some h in G_{i+1}; and G_{i+1} is
    generated before w is reached, since the child base[i] is searched
    first.  The later leaves below w add nothing, and a subtree is left
    early only after it has yielded a generator, so the search of a
    subtree still yields one whenever it holds an image of the first leaf.
    """
    gens, base = _search_generators(g, node_budget)
    order = prod(len(_orbit(gens, base[:i], [b])) for i, b in enumerate(base))
    return AutGroup(n=g.n, generators=tuple(gens), base=base, order=order)


def disjoint_automorphisms(
    g: Graph, generators: list[Perm] | tuple[Perm, ...]
) -> tuple[Perm, Perm] | None:
    """Two non-identity automorphisms of g with disjoint supports, or None;
    raises SearchBudgetExceeded past DEFAULT_NODE_BUDGET search nodes.

    Such a pair proves that g has quantum symmetry (S. Schmidt, Quantum
    automorphisms of folded cube graphs, Ann. Inst. Fourier 2020).  Take
    projections p and q that do not commute, and let u be the matrix
    sigma (x) p + id (x) (1 - p) on the rows of supp sigma, tau (x) q +
    id (x) (1 - q) on those of supp tau, and id elsewhere.  It is the
    product of two magic unitaries, each a permutation matrix of g's
    automorphisms tensored with projections, so u is a magic unitary that
    commutes with the adjacency matrix.  Its entries u_{i sigma(i)} = p
    and u_{k tau(k)} = q do not commute, so C(Qut(g)) is not commutative.

    sigma is the first of the generators that moves the fewest vertices,
    and tau the first generator the search finds among the automorphisms
    fixing supp sigma pointwise: it starts from one singleton cell per
    vertex sigma moves, then the cell of the others when there are any,
    and stops at that generator.
    """
    if not generators:
        return None
    sigma = min(generators, key=lambda s: sum(map(ne, s, range(g.n))))
    moved = [v for v in range(g.n) if sigma[v] != v]
    fixed = [v for v in range(g.n) if sigma[v] == v]
    cells = [[v] for v in moved] + ([fixed] if fixed else [])
    found, _ = _search_generators(g, DEFAULT_NODE_BUDGET, cells, first=True)
    return (sigma, found[0]) if found else None


def _least_mask(n: int, generators) -> int:
    """Bitmask of the least vertex of each orbit of the generators on
    0..n-1: every vertex but the other members of each orbit they move."""
    mask = (1 << n) - 1
    moved = {v for s in generators for v in compress(range(n), map(ne, s, range(n)))}
    seen: set[int] = set()
    for v in sorted(moved):
        if v not in seen:
            orbit = _orbit(generators, (), [v])
            seen |= orbit
            mask ^= sum(1 << w for w in orbit) ^ (1 << v)
    return mask


def covered_pairs(generators: list[Perm] | tuple[Perm, ...], dd: DistanceData):
    """The pairs covering each distance class under the group generated
    by the generators, automorphisms of dd's graph: pairs(m) lists the
    pairs (r, x) at distance m, where r runs over the least vertex of each
    vertex orbit and x over the least vertex of each orbit on the sphere
    S_m(r) of the generators fixing r, both in increasing order.  The
    trivial group lists every ordered pair of the class, and a
    vertex-transitive group the pairs (0, x).

    The generators fixing r keep every sphere around r, so each of their
    orbits lies in one sphere, and x is read off as a bit of S_m(r)'s mask
    ANDed with the mask of the least vertices of their orbits.

    The pairs cover the class.  Take (a, b) at distance m.  Some g in the
    generated group maps a to its root r, and g(b) lies in S_m(r), so g(b)
    is in the orbit of a listed x under the generators fixing r, and (a, b)
    in the group's orbit of (r, x).  This holds even when the generators
    fixing r do not generate the whole stabilizer of r."""
    n, masks = len(dd.sphere_masks), dd.sphere_masks
    roots = list(_bits(_least_mask(n, generators)))
    least = [_least_mask(n, [s for s in generators if s[r] == r]) for r in roots]
    return lambda m: [(r, x) for r, keep in zip(roots, least) for x in _bits(masks[r][m] & keep)]


def is_distance_transitive(
    g: Graph, *, aut: AutGroup | None = None, dd: DistanceData | None = None
) -> bool:
    """True when g has n >= 2 vertices and, for every distance m, the
    ordered pairs at distance m form a single orbit of the automorphism
    group.  A group and distances already computed for g may be passed as
    aut and dd; without aut the group is searched within DEFAULT_NODE_BUDGET
    nodes.

    A connected graph is distance-transitive exactly when its group is
    transitive on vertices and the stabilizer of vertex 0 is transitive on
    every sphere around 0: when covered_pairs lists one pair for every
    distance, m = 0 being the test of vertex-transitivity.  On a
    vertex-transitive graph the root partition refines to one cell, so the
    search's base starts at 0 and the generators fixing 0 generate that
    stabilizer.
    """
    if dd is None:
        dd = distances(g)
    if not dd.connected or g.n <= 1:
        return False
    if aut is None:
        aut = automorphism_group(g)
    pairs = covered_pairs(aut.generators, dd)
    return all(len(pairs(m)) == 1 for m in range(dd.diameter + 1))
