"""Immutable simple undirected graphs on vertex set 0..n-1, plus metric invariants."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, compress
from operator import or_

# Distance value used for vertex pairs in different components.
INFINITE = -1


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""


class Graph:
    """A simple undirected graph with a frozen, normalized edge set.

    Vertices are exactly the integers 0..n-1.  Edges are stored as (u, v)
    pairs with u < v; self-loops and out-of-range endpoints are rejected.
    Instances compare and hash by (n, edges) and are treated as immutable.
    Adjacency is stored once more, as one neighbor bitmask per vertex:
    bit w of masks[v] is set exactly when v and w are adjacent.
    """

    __slots__ = ("n", "edges", "masks", "_hash")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            norm.add((a, b))
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.n = n
        self.edges = frozenset(norm)
        self.masks = tuple(masks)
        self._hash = hash((n, self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def degrees(self) -> tuple:
        return tuple(mask.bit_count() for mask in self.masks)

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


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to the bytes 0 and 1


def _bits(x: int):
    """The set bits of x >= 0 in increasing order, read off its binary
    digits in one C-level pass."""
    digits = bin(x)[:1:-1].encode().translate(_DIGITS)
    return compress(range(len(digits)), digits)


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances, stored once: bit w of sphere_masks[v][m] is set
    exactly when d(v, w) == m, for m in 0..diameter.  row(v), d(v, w) for
    every w (INFINITE where v does not reach), is built from v's masks on
    first use and kept on the instance: a search pays n per vertex read."""

    sphere_masks: tuple
    diameter: int
    connected: bool
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def row(self, v: int) -> tuple:
        if v not in self._rows:
            row = [INFINITE] * len(self.sphere_masks)
            for m, mask in enumerate(self.sphere_masks[v]):
                for w in _bits(mask):
                    row[w] = m
            self._rows[v] = tuple(row)
        return self._rows[v]

    def d(self, u: int, v: int) -> int:
        return self.row(u)[v]


def distances(g: Graph) -> DistanceData:
    """Exact all-pairs distances, one distance at a time for every vertex.
    As d is symmetric, the vertices at distance m from a neighbor of v lie
    at distance m-1, m or m+1 from v, and each at m+1 is one of them; so
    sphere m+1 around v is the OR of the spheres m around its neighbors,
    minus v's spheres m-1 and m."""
    adj = [tuple(_bits(mask)) for mask in g.masks]
    levels = [[0] * g.n, [1 << v for v in range(g.n)]]  # spheres -1 and 0
    while any(levels[-1]):
        prev, last = levels[-2:]
        reach = [reduce(or_, map(last.__getitem__, nbrs), 0) for nbrs in adj]
        levels.append([x & ~(y | z) for x, y, z in zip(reach, last, prev)])
    masks = tuple(zip(*levels[1:-1]))
    return DistanceData(
        sphere_masks=masks,
        diameter=max(len(levels) - 3, 0),
        connected=all(sum(spheres) == (1 << g.n) - 1 for spheres in masks),
    )


def is_connected(g: Graph) -> bool:
    return distances(g).connected


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
    nbrs = g.masks
    best = None
    for masks in dd.sphere_masks:
        twice = 0  # the vertices with two neighbors in sphere i-1
        for i in range(1, len(masks)):
            if best is not None and 2 * i >= best:
                break
            if twice & masks[i]:
                best = 2 * i
                break
            once = twice = 0  # one walk: sphere i's neighbors, and those with two in it
            for w in _bits(masks[i]):
                twice |= once & nbrs[w]
                once |= nbrs[w]
            if once & masks[i]:
                best = 2 * i + 1
                break
        if best == 3:
            break
    return best


def clique_number(g: Graph, orbits: list[list[int]] | None = None) -> int:
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
    taken from itself and those of lower colors.  It reads g.masks only:
    no distances are computed.
    """
    nbrs = g.masks
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
