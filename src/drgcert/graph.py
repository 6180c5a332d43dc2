"""Immutable simple undirected graphs on vertex set 0..n-1, plus metric invariants."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# Distance value used for vertex pairs in different components.
INFINITE = -1


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""


class Graph:
    """A simple undirected graph with a frozen, normalized edge set.

    Vertices are exactly the integers 0..n-1.  Edges are stored as (u, v)
    pairs with u < v; self-loops and out-of-range endpoints are rejected.
    Instances compare and hash by (n, edges) and are treated as immutable.
    """

    __slots__ = ("n", "edges", "_nbrs", "_hash")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs = [set() for _ in range(n)]
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            norm.add((a, b))
            nbrs[a].add(b)
            nbrs[b].add(a)
        self.n = n
        self.edges = frozenset(norm)
        self._nbrs = tuple(frozenset(s) for s in nbrs)
        self._hash = hash((n, self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbrs[u]

    def degrees(self) -> tuple:
        return tuple(len(s) for s in self._nbrs)

    def regular_degree(self):
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from an explicit edge list, rejecting duplicates.

    Unlike the Graph constructor (which normalizes silently), a repeated
    edge here, in either orientation, is an error: duplicated input data
    almost always means a transcription mistake.
    """
    edges = list(edges)
    seen = set()
    for u, v in edges:
        a, b = (u, v) if u <= v else (v, u)
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((a, b))
    return Graph(n, edges)


def _spheres(nbrs: list, s: int) -> tuple:
    """(masks, layers) around s: bit w of masks[m] is set, and w listed in
    layers[m] in increasing order, exactly when d(s, w) == m, for m up to
    the eccentricity of s.  nbrs[v] is the neighbor bitmask of v; sphere
    m+1 is the OR of those of sphere m minus the vertices already seen."""
    sphere = seen = 1 << s
    masks, layers = [], []
    while sphere:
        layer = []
        x = sphere
        while x:
            low = x & -x
            layer.append(low.bit_length() - 1)
            x ^= low
        reach = 0
        for w in layer:
            reach |= nbrs[w]
        masks.append(sphere)
        layers.append(tuple(layer))
        sphere = reach & ~seen
        seen |= reach
    return masks, layers


def _neighbor_masks(g: Graph) -> list:
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def is_connected(g: Graph) -> bool:
    return g.n == 0 or sum(_spheres(_neighbor_masks(g), 0)[0]) == (1 << g.n) - 1


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances of a graph plus its spheres around every vertex.

    dist[u][v] is the graph distance, INFINITE for unreachable pairs.
    spheres[v][m] lists the vertices at distance exactly m from v in
    increasing order, kseq[v][m] is its size and sphere_masks[v][m] is it
    as a bitmask, bit w set exactly when d(v, w) == m; all three are
    indexed 0..diameter, so sphere_masks[v][1] is the neighbor mask of v
    once the diameter is at least 1.  One distance pass builds them all.
    """

    dist: tuple
    diameter: int
    connected: bool
    spheres: tuple
    kseq: tuple
    sphere_masks: tuple

    def d(self, u: int, v: int) -> int:
        return self.dist[u][v]

    def neighbor_masks(self) -> list:
        """The neighbor bitmask of every vertex, read off sphere 1."""
        return [masks[1] for masks in self.sphere_masks] if self.diameter else [0] * len(self.dist)

    def at_distance(self, v: int, m: int) -> tuple:
        if not 0 <= m <= self.diameter:
            return ()
        return self.spheres[v][m]

    def pairs_at_distance(self, m: int) -> list:
        """All ordered pairs (u, v) with d(u, v) == m, lexicographically,
        for 0 <= m; unreachable pairs are not listed."""
        if not 0 <= m <= self.diameter:
            return []
        return [(u, v) for u, layers in enumerate(self.spheres) for v in layers[m]]


def distances(g: Graph) -> DistanceData:
    """Exact all-pairs distances: one bitmask breadth-first search per vertex."""
    n = g.n
    nbrs = _neighbor_masks(g)
    found = [_spheres(nbrs, s) for s in range(n)]
    diameter = max((len(masks) for masks, _ in found), default=1) - 1
    dist_rows, spheres, sphere_masks = [], [], []
    for masks, layers in found:
        row = [INFINITE] * n
        for m, layer in enumerate(layers):
            for w in layer:
                row[w] = m
        pad = diameter + 1 - len(masks)
        dist_rows.append(tuple(row))
        spheres.append(tuple(layers) + ((),) * pad)
        sphere_masks.append(tuple(masks) + (0,) * pad)
    return DistanceData(
        dist=tuple(dist_rows),
        diameter=diameter,
        connected=all(sum(masks) == (1 << n) - 1 for masks, _ in found),
        spheres=tuple(spheres),
        kseq=tuple(tuple(map(len, layers)) for layers in spheres),
        sphere_masks=tuple(sphere_masks),
    )


def girth(g: Graph, dd: DistanceData | None = None):
    """Length of a shortest cycle, or None for acyclic graphs.

    Around a root r, a vertex w of sphere i bounds the girth in two ways.
    Two neighbors in sphere i-1 give two shortest paths from r to w,
    whose union holds a cycle of length at most 2i.  A neighbor x in
    sphere i gives, with shortest paths to w and x, a closed walk of odd
    length 2i+1, which holds a cycle of length at most 2i+1.  Conversely,
    on a shortest cycle C through r the distances are those along C, so
    if C has length 2i the vertex opposite r has two neighbors in sphere
    i-1, and if 2i+1 the two vertices opposite r are adjacent in sphere i.
    Hence the girth is the minimum over roots of the bound at the first
    sphere with such a vertex: 2i if some vertex has two neighbors in
    sphere i-1, else 2i+1.  The even test comes first, since one sphere
    can hold both kinds and then only 2i is the bound.
    """
    if dd is None:
        dd = distances(g)
    nbrs = dd.neighbor_masks()
    best = None
    for layers, masks in zip(dd.spheres, dd.sphere_masks):
        for i in range(1, len(masks)):
            if best is not None and 2 * i >= best:
                break
            if any((nbrs[w] & masks[i - 1]).bit_count() > 1 for w in layers[i]):
                best = 2 * i
            elif any(nbrs[w] & masks[i] for w in layers[i]):
                best = 2 * i + 1
        if best == 3:
            break
    return best


def clique_number(
    g: Graph, orbits: list[list[int]] | None = None, dd: DistanceData | None = None
) -> int:
    """Exact maximum clique size: a branch and bound on neighbor bitmasks,
    rooted at one vertex of each vertex orbit.

    orbits must be the vertex orbits of some group of automorphisms of g,
    in any order; None stands for the trivial group, every vertex its own
    orbit.  Going through the orbits O_1, O_2, ... in order, the search
    looks for a largest clique through the least vertex r_i of O_i among
    the neighbors of r_i in O_i, O_{i+1}, ...  That is exact: take a
    maximum clique K, the first orbit O_i it meets and x in K and O_i.
    Some automorphism h maps x to r_i, so h(K) is a maximum clique through
    r_i; it misses O_1 .. O_{i-1}, as orbits are invariant under h, so its
    other vertices are neighbors of r_i in the later orbits.

    The bound is a greedy coloring of the candidate set, built by removing
    neighbor masks (Tomita's MCQ, in the bitset form of San Segundo's
    BBMC): a vertex of color k extends the clique by at most k vertices
    taken from itself and those of lower colors.  The neighbor masks are
    read off dd, the distances of g, computed here when not passed.
    """
    if dd is None:
        dd = distances(g)
    nbrs = dd.neighbor_masks()
    best = min(g.n, 1)

    def expand(size, cand):
        nonlocal best
        colored = []
        q, k = cand, 0
        while q:
            k += 1
            c = q
            while c:
                low = c & -c
                v = low.bit_length() - 1
                q ^= low
                c = (c ^ low) & ~nbrs[v]
                colored.append((v, k))
        for v, k in reversed(colored):
            if size + k <= best:
                return
            sub = cand & nbrs[v]
            if sub:
                expand(size + 1, sub)
            elif size + 1 > best:
                best = size + 1
            cand ^= 1 << v

    if orbits is None:
        orbits = [[v] for v in range(g.n)]
    later = (1 << g.n) - 1
    for orbit in orbits:
        r = min(orbit)
        cand = nbrs[r] & later
        if 1 + cand.bit_count() > best:
            expand(1, cand)
        for v in orbit:
            later &= ~(1 << v)
    return best


def common_neighbors(g: Graph, u: int, v: int) -> frozenset:
    if u == v:
        raise ValueError("common_neighbors requires two distinct vertices")
    return g.neighbors(u) & g.neighbors(v)


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u, v in combinations(range(g.n), 2)
        if not g.adjacent(u, v)
    ]
    return Graph(g.n, edges)


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g in sorted order; adjacency is sharing an endpoint."""
    base = g.sorted_edges()
    index = {e: i for i, e in enumerate(base)}
    edges = []
    for i, (u, v) in enumerate(base):
        for x in (u, v):
            for w in g.neighbors(x):
                e = (x, w) if x < w else (w, x)
                j = index[e]
                if j > i:
                    edges.append((i, j))
    return Graph(len(base), set(edges))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, b) is encoded as a * h.n + b."""
    edges = []
    for a in range(g.n):
        for b in range(h.n):
            v = a * h.n + b
            for b2 in h.neighbors(b):
                if b2 > b:
                    edges.append((v, a * h.n + b2))
            for a2 in g.neighbors(a):
                if a2 > a:
                    edges.append((v, a2 * h.n + b))
    return Graph(g.n * h.n, edges)


def bipartite_complement(g: Graph, part_a, part_b) -> Graph:
    """Complement within the bipartition (part_a, part_b) only.

    Edges inside either part are forbidden in the input and stay absent in
    the output; between the parts, adjacency is inverted.
    """
    sa, sb = set(part_a), set(part_b)
    if sa & sb:
        raise ValueError("bipartition parts overlap")
    if sa | sb != set(range(g.n)):
        raise ValueError("bipartition does not cover the vertex set")
    for u, v in g.edges:
        if (u in sa) == (v in sa):
            raise ValueError(f"edge ({u},{v}) lies inside one part")
    edges = [(u, v) for u in sa for v in sb if not g.adjacent(u, v)]
    return Graph(g.n, edges)
