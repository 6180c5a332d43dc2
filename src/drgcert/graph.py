"""Immutable simple undirected graphs on vertex set 0..n-1, plus metric invariants."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
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

    def vertices(self) -> range:
        return range(self.n)

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


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances of a graph plus derived per-vertex layer data.

    dist[u][v] is the graph distance, INFINITE for unreachable pairs.
    spheres[v][m] lists the vertices at distance exactly m from v, and
    kseq[v][m] is the size of that sphere; both are indexed 0..diameter.
    sphere_masks[v][m] is that sphere as a bitmask, bit w set exactly when
    d(v, w) == m; it is built on first use and then kept.
    """

    dist: tuple
    diameter: int
    connected: bool
    spheres: tuple
    kseq: tuple

    def d(self, u: int, v: int) -> int:
        return self.dist[u][v]

    @cached_property
    def sphere_masks(self) -> tuple:
        return tuple(
            tuple(sum(1 << w for w in layer) for layer in layers) for layers in self.spheres
        )

    def at_distance(self, v: int, m: int) -> tuple:
        if m > self.diameter:
            return ()
        return self.spheres[v][m]

    def pairs_at_distance(self, m: int) -> list:
        """All ordered pairs (u, v) with d(u, v) == m, lexicographically."""
        out = []
        for u in range(len(self.dist)):
            row = self.dist[u]
            for v in range(len(row)):
                if row[v] == m:
                    out.append((u, v))
        return out


def distances(g: Graph) -> DistanceData:
    """BFS from every vertex; exact all-pairs distances."""
    n = g.n
    dist_rows = []
    diameter = 0
    connected = True
    for s in range(n):
        row = [INFINITE] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = row[v]
            for w in g.neighbors(v):
                if row[w] == INFINITE:
                    row[w] = dv + 1
                    queue.append(w)
        reach_max = max((x for x in row if x != INFINITE), default=0)
        diameter = max(diameter, reach_max)
        if INFINITE in row:
            connected = False
        dist_rows.append(tuple(row))
    spheres = []
    kseq = []
    for v in range(n):
        layers = [[] for _ in range(diameter + 1)]
        for w, dvw in enumerate(dist_rows[v]):
            if dvw != INFINITE:
                layers[dvw].append(w)
        spheres.append(tuple(tuple(layer) for layer in layers))
        kseq.append(tuple(len(layer) for layer in layers))
    return DistanceData(
        dist=tuple(dist_rows),
        diameter=diameter,
        connected=connected,
        spheres=tuple(spheres),
        kseq=tuple(kseq),
    )


def girth(g: Graph):
    """Length of a shortest cycle, or None for acyclic graphs.

    BFS from each root; a non-tree edge (u, w) seen from root r closes a
    walk of length dist[u] + dist[w] + 1 through r.  The minimum of these
    candidates over all roots is exactly the girth.
    """
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            if best is not None and dist[v] * 2 >= best:
                continue
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w and parent[w] != v:
                    cand = dist[v] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 3:
            break
    return best


def clique_number(g: Graph) -> int:
    """Exact maximum clique size, branch and bound with a coloring bound."""
    if g.n == 0:
        return 0
    best = 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    nbrs = g._nbrs

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
