"""Constructors for the distance-regular graphs handled by this package.

A graph is addressed by a colon-separated spec string such as

    complete:4       hamming:2:4      johnson:6:3      paley:17
    cycle:6          cube:3           kneser:5:2       named:heawood
    complete_bipartite:3              odd:4            crown:5

Every graph is built from its definition by a constructor in this module;
nothing is read from files.  Parametric families are registered in
_PARAMETRIC with their arity, label and constructor, named graphs in _NAMED
with their label and constructor.  tests/test_families.py pins each
named graph's labelled graph6, girth, diameter and intersection array.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

from .graph import Graph, bipartite_complement, from_edge_list, line_graph


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family spec: family id plus integer parameters, or a
    registered graph name for the named family."""

    family: str
    params: tuple[int, ...] = ()
    name: str | None = None

    def key(self) -> str:
        if self.family == "named":
            return f"named:{self.name}"
        return ":".join([self.family] + [str(p) for p in self.params])

    def label(self) -> str:
        if self.family == "named":
            return _NAMED[self.name].label
        return _PARAMETRIC[self.family].label(*self.params)


def parse_family(text: str) -> FamilySpec:
    """Parse a spec string like "hamming:2:4" or "named:heawood"."""
    parts = text.strip().split(":")
    family = parts[0].strip().lower()
    if family == "named":
        if len(parts) != 2:
            raise ValueError(f"named spec needs exactly one name: {text!r}")
        name = re.sub(r"[\s\-]+", "_", parts[1].strip().lower())
        if name not in _NAMED:
            known = ", ".join(sorted(_NAMED))
            raise ValueError(f"unknown graph name {parts[1]!r} (known: {known})")
        return FamilySpec("named", (), name)
    if family not in _PARAMETRIC:
        raise ValueError(f"unknown family {family!r}")
    arity = _PARAMETRIC[family].arity
    if len(parts) - 1 != arity:
        raise ValueError(f"family {family} takes {arity} parameter(s), got {text!r}")
    try:
        params = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"non-integer parameter in {text!r}") from None
    spec = FamilySpec(family, params)
    _validate_params(spec)
    return spec


def _validate_params(spec: FamilySpec) -> None:
    f, p = spec.family, spec.params
    if f == "complete" and p[0] < 1:
        raise ValueError("complete:n needs n >= 1")
    if f == "cycle" and p[0] < 3:
        raise ValueError("cycle:n needs n >= 3")
    if f == "complete_bipartite" and p[0] < 1:
        raise ValueError("complete_bipartite:n needs n >= 1")
    if f == "crown" and p[0] < 3:
        raise ValueError("crown:n needs n >= 3")
    if f == "cube" and p[0] < 1:
        raise ValueError("cube:d needs d >= 1")
    if f == "hamming" and (p[0] < 1 or p[1] < 1):
        raise ValueError("hamming:d:q needs d >= 1 and q >= 1")
    if f == "johnson" and not (1 <= p[1] < p[0]):
        raise ValueError("johnson:n:k needs 1 <= k < n")
    if f == "kneser" and not (p[1] >= 1 and p[0] >= 2 * p[1]):
        raise ValueError("kneser:n:k needs k >= 1 and n >= 2k")
    if f == "odd" and p[0] < 2:
        raise ValueError("odd:k needs k >= 2")
    if f == "paley":
        _paley_prime(p[0])


def build(spec: FamilySpec | str) -> Graph:
    """Build the graph for a spec, caching by spec key."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    return _build_cached(spec.key())


def label_for(spec: FamilySpec | str) -> str:
    if isinstance(spec, str):
        spec = parse_family(spec)
    return spec.label()


def list_named() -> list[str]:
    return sorted(_NAMED)


@lru_cache(maxsize=None)
def _build_cached(key: str) -> Graph:
    spec = parse_family(key)
    if spec.family == "named":
        return _NAMED[spec.name].build()
    return _PARAMETRIC[spec.family].build(*spec.params)


# ---------------------------------------------------------------- families


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite_graph(n: int) -> Graph:
    """K_{n,n} with sides 0..n-1 and n..2n-1."""
    return from_edge_list(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def crown_graph(n: int) -> Graph:
    """K_{n,n} minus a perfect matching, n >= 3.  Equivalently the
    complement of two disjoint copies of K_n joined by a matching."""
    edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
    return from_edge_list(2 * n, edges)


def hamming_graph(d: int, q: int) -> Graph:
    """H(d,q): words of length d over q letters, adjacent when they differ
    in exactly one coordinate."""
    if q == 1:  # one vertex whatever d, its word never spelled out
        return from_edge_list(1, [])
    words = list(product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        for pos in range(d):
            for letter in range(w[pos] + 1, q):
                other = w[:pos] + (letter,) + w[pos + 1 :]
                edges.append((index[w], index[other]))
    return from_edge_list(len(words), edges)


def _meet_graph(sets: list[frozenset], size: int) -> Graph:
    """Graph on a list of sets, adjacent when two meet in exactly size elements."""
    pairs = combinations(enumerate(sets), 2)
    return from_edge_list(len(sets), [(i, j) for (i, s), (j, t) in pairs if len(s & t) == size])


def johnson_graph(n: int, k: int) -> Graph:
    """J(n,k): k-subsets, adjacent when the intersection has size k-1."""
    return _meet_graph([frozenset(c) for c in combinations(range(n), k)], k - 1)


def kneser_graph(n: int, k: int) -> Graph:
    """K(n,k): k-subsets, adjacent when disjoint."""
    return _meet_graph([frozenset(c) for c in combinations(range(n), k)], 0)


def odd_graph(k: int) -> Graph:
    """O_k: (k-1)-subsets of a (2k-1)-set, adjacent when disjoint."""
    return kneser_graph(2 * k - 1, k - 1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _paley_prime(q: int) -> int:
    """The prime p of GF(q) for a Paley order q: q itself when q is a prime
    with q = 1 mod 4, or the odd prime whose square q is."""
    if _is_prime(q):
        if q % 4 != 1:
            raise ValueError(f"paley:q needs q = 1 mod 4, got {q}")
        return q
    root = isqrt(q) if q > 0 else 0
    if root * root != q or not _is_prime(root) or root == 2:
        raise ValueError(f"paley:q needs q an odd prime or its square, got {q}")
    return root


def _paley_field(q: int):
    """Return (p, elements, mul) for GF(q), q a valid Paley order.
    Elements are pairs (a, b) = a + b*x, with b = 0 when q = p."""
    p = _paley_prime(q)
    # GF(p^2) = Z_p[x] / (x^2 - r) with r the smallest non-residue mod p
    residues = {(a * a) % p for a in range(1, p)}
    r = next(a for a in range(2, p) if a not in residues)
    elements = [(a, b) for b in range(q // p) for a in range(p)]

    def mul(u, v):
        a1, b1 = u
        a2, b2 = v
        return ((a1 * a2 + r * b1 * b2) % p, (a1 * b2 + a2 * b1) % p)

    return p, elements, mul


def paley_graph(q: int) -> Graph:
    """Paley graph on GF(q), q = 1 mod 4: vertices are field elements,
    adjacent when the difference is a nonzero square.

    For prime q the vertex index is the field element itself.  For q = p^2
    the element a + b*x has index a + b*p.
    """
    p, elements, mul = _paley_field(q)
    index = {e: i for i, e in enumerate(elements)}
    squares = {mul(e, e) for e in elements if e != (0, 0)}
    edges = set()
    for u in elements:
        for s in squares:
            v = ((u[0] + s[0]) % p, (u[1] + s[1]) % p)
            iu, iv = index[u], index[v]
            if iu < iv:
                edges.add((iu, iv))
    return from_edge_list(q, edges)


@dataclass(frozen=True)
class _Family:
    arity: int
    label: Callable[..., str]
    build: Callable[..., Graph]


# each parametric family's label and constructor take the spec's parameters
_PARAMETRIC = {
    "complete": _Family(1, lambda n: f"K_{n}", complete_graph),
    "cycle": _Family(1, lambda n: f"C_{n}", cycle_graph),
    "complete_bipartite": _Family(1, lambda n: f"K_{{{n},{n}}}", complete_bipartite_graph),
    "crown": _Family(1, lambda n: f"crown graph on {2 * n} vertices", crown_graph),
    "cube": _Family(1, lambda d: f"cube Q_{d}", lambda d: hamming_graph(d, 2)),
    "hamming": _Family(2, lambda d, q: f"Hamming graph H({d},{q})", hamming_graph),
    "johnson": _Family(2, lambda n, k: f"Johnson graph J({n},{k})", johnson_graph),
    "kneser": _Family(2, lambda n, k: f"Kneser graph K({n},{k})", kneser_graph),
    "odd": _Family(1, lambda k: f"odd graph O_{k}", odd_graph),
    "paley": _Family(1, lambda q: f"Paley graph P_{q}", paley_graph),
}

FAMILIES = (*_PARAMETRIC, "named")


# ------------------------------------------------------------ named graphs


def _fano_lines() -> list[frozenset[int]]:
    # the 7 lines of the Fano plane as difference set translates
    return [frozenset({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]


def _petersen() -> Graph:
    return kneser_graph(5, 2)


def _heawood() -> Graph:
    """Point-line incidence graph of the Fano plane.  Points are 0..6,
    lines are 7..13."""
    edges = []
    for i, line in enumerate(_fano_lines()):
        for pt in line:
            edges.append((pt, 7 + i))
    return from_edge_list(14, edges)


def _co_heawood() -> Graph:
    """Point-line non-incidence graph of the Fano plane."""
    return bipartite_complement(_heawood(), range(7), range(7, 14))


def _pappus() -> Graph:
    """Point-line incidence graph of the affine plane AG(2,3) without the
    parallel class of direction (0,1).  Point (x,y) is 3x+y; the nine
    lines, in sorted order, are 9..17."""
    lines = {
        frozenset(((x + t * dx) % 3, (y + t * dy) % 3) for t in range(3))
        for dx, dy in ((1, 0), (1, 1), (1, 2))
        for x, y in product(range(3), repeat=2)
    }
    ordered = enumerate(sorted(lines, key=sorted))
    return from_edge_list(18, [(3 * x + y, 9 + i) for i, line in ordered for x, y in line])


def _coxeter() -> Graph:
    """The 28 triples of a 7-set that are not Fano lines, in lexicographic
    order, adjacent when disjoint."""
    fano = set(_fano_lines())
    triples = [t for t in map(frozenset, combinations(range(7), 3)) if t not in fano]
    return _meet_graph(triples, 0)


def _generalized_petersen(n: int, k: int) -> Graph:
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return from_edge_list(2 * n, outer + spokes + inner)


def _desargues() -> Graph:
    return _generalized_petersen(10, 3)


def _dodecahedron() -> Graph:
    return _generalized_petersen(10, 2)


def _perfect_matchings_k6() -> list[frozenset[tuple[int, int]]]:
    def rec(rest: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        if not rest:
            return [[]]
        first = rest[0]
        out = []
        for partner in rest[1:]:
            remainder = tuple(v for v in rest[1:] if v != partner)
            for tail in rec(remainder):
                out.append([(first, partner)] + tail)
        return out

    return [frozenset(m) for m in rec(tuple(range(6)))]


def _tutte_8_cage() -> Graph:
    """Incidence graph of the 2-subsets of a 6-set versus the perfect
    matchings of K_6.  Vertices 0..14 are the pairs, 15..29 the matchings."""
    pairs = list(combinations(range(6), 2))
    matchings = _perfect_matchings_k6()
    edges = []
    for j, m in enumerate(matchings):
        for pair in m:
            edges.append((pairs.index(pair), 15 + j))
    return from_edge_list(30, edges)


def _foster() -> Graph:
    """LCF [17,-9,37,-37,9,-17]^15: the cycle 0..89 plus a chord from each
    i to i + pattern[i mod 6].  Each chord is named from both ends."""
    pattern = (17, -9, 37, -37, 9, -17)
    edges = [(i, (i + d) % 90) for i in range(90) for d in (1, pattern[i % 6])]
    return Graph(90, edges)


def _biggs_smith() -> Graph:
    """Z_17 cover of an H-shaped voltage graph: hub classes U, V joined to
    each other, U to the loop classes A, B and V to C, D.  Vertex i of A,
    B, C, D is joined to i+1, i+4, i+2, i+8 mod 17 in its class.  Class t
    of (A, B, C, D, U, V) holds vertices 17t..17t+16."""
    A, B, C, D, U, V = (17 * t for t in range(6))
    edges = []
    for i in range(17):
        edges += [(U + i, V + i), (U + i, A + i), (U + i, B + i), (V + i, C + i), (V + i, D + i)]
        edges += [(c + i, c + (i + v) % 17) for c, v in ((A, 1), (B, 4), (C, 2), (D, 8))]
    return from_edge_list(102, edges)


def _icosahedron() -> Graph:
    # apex 0, upper pentagon 1..5, lower pentagon 6..10, apex 11
    edges = []
    for i in range(5):
        edges.append((0, 1 + i))
        edges.append((11, 6 + i))
        edges.append((1 + i, 1 + (i + 1) % 5))
        edges.append((6 + i, 6 + (i + 1) % 5))
        edges.append((1 + i, 6 + i))
        edges.append((1 + i, 6 + (i + 1) % 5))
    return from_edge_list(12, edges)


def _line_petersen() -> Graph:
    return line_graph(_petersen())


def _shrikhande() -> Graph:
    """Cayley graph of Z_4 x Z_4 with connection set
    {(1,0),(3,0),(0,1),(0,3),(1,1),(3,3)}.  Each edge is named from both ends."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a, b in product(range(4), repeat=2)
        for da, db in conn
    ]
    return Graph(16, edges)


def _clebsch() -> Graph:
    """Folded 5-cube: 4-bit words, adjacent when the Hamming distance is
    1 or 4."""
    edges = []
    for u in range(16):
        for v in range(u + 1, 16):
            if bin(u ^ v).count("1") in (1, 4):
                edges.append((u, v))
    return from_edge_list(16, edges)


def _hoffman_singleton() -> Graph:
    """Robertson's construction: five pentagons P_0..P_4 and five
    pentagrams Q_0..Q_4, with vertex j of P_h joined to vertex
    h*i + j mod 5 of Q_i.  Vertex j of P_h is 5h + j, vertex j of Q_i
    is 25 + 5i + j."""
    five = range(5)
    edges = [(5 * h + j, 5 * h + (j + 1) % 5) for h in five for j in five]
    edges += [(25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5) for i in five for j in five]
    edges += [(5 * h + j, 25 + 5 * i + (h * i + j) % 5) for h, i, j in product(five, repeat=3)]
    return from_edge_list(50, edges)


@dataclass(frozen=True)
class _NamedEntry:
    label: str
    build: Callable[[], Graph]


_NAMED = {
    "petersen": _NamedEntry("Petersen graph", _petersen),
    "heawood": _NamedEntry("Heawood graph", _heawood),
    "pappus": _NamedEntry("Pappus graph", _pappus),
    "desargues": _NamedEntry("Desargues graph", _desargues),
    "dodecahedron": _NamedEntry("Dodecahedron", _dodecahedron),
    "coxeter": _NamedEntry("Coxeter graph", _coxeter),
    "tutte_8_cage": _NamedEntry("Tutte 8-cage", _tutte_8_cage),
    "foster": _NamedEntry("Foster graph", _foster),
    "biggs_smith": _NamedEntry("Biggs-Smith graph", _biggs_smith),
    "icosahedron": _NamedEntry("Icosahedron", _icosahedron),
    "co_heawood": _NamedEntry("co-Heawood graph", _co_heawood),
    "line_petersen": _NamedEntry("line graph of Petersen graph", _line_petersen),
    "shrikhande": _NamedEntry("Shrikhande graph", _shrikhande),
    "clebsch": _NamedEntry("Clebsch graph", _clebsch),
    "hoffman_singleton": _NamedEntry("Hoffman-Singleton graph", _hoffman_singleton),
}
