"""Distance-regularity analysis: intersection arrays, SRG parameters, k-sequences."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DisconnectedGraphError, Graph, _bits, distances


@dataclass(frozen=True)
class IntersectionArray:
    """The array {b_0,...,b_{d-1}; c_1,...,c_d} of a distance-regular graph."""

    b: tuple
    c: tuple

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c sequences must have equal length")
        if not self.b:
            raise ValueError("intersection array must be nonempty")
        if any(x < 1 for x in self.b) or any(x < 1 for x in self.c):
            raise ValueError("intersection numbers must be positive")
        if self.c[0] != 1:
            raise ValueError("c_1 must equal 1")

    @property
    def diameter(self) -> int:
        return len(self.c)

    @property
    def degree(self) -> int:
        return self.b[0]

    def b_at(self, i: int) -> int:
        """b_i for 0 <= i <= d-1 (b_d is 0 by convention)."""
        return self.b[i] if i < len(self.b) else 0

    def c_at(self, i: int) -> int:
        """c_i for 1 <= i <= d."""
        return self.c[i - 1]

    def __str__(self):
        left = ",".join(str(x) for x in self.b)
        right = ",".join(str(x) for x in self.c)
        return "{" + left + ";" + right + "}"

    @classmethod
    def parse(cls, text: str) -> "IntersectionArray":
        s = text.strip().replace(" ", "")
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"bad intersection array syntax: {text!r}")
        body = s[1:-1]
        halves = body.split(";")
        if len(halves) != 2:
            raise ValueError(f"bad intersection array syntax: {text!r}")
        b = tuple(int(x) for x in halves[0].split(","))
        c = tuple(int(x) for x in halves[1].split(","))
        return cls(b=b, c=c)


@dataclass(frozen=True)
class NotDistanceRegular:
    """Why a graph failed the distance-regularity test, with a witness pair."""

    witness: tuple
    reason: str

    def __bool__(self):
        return False


def intersection_array(g: Graph, dd=None, *, _roots=None):
    """IntersectionArray of g, or NotDistanceRegular with a counterexample.

    Disconnected input is an error.  Irregular input is reported as not
    distance-regular, witnessed by two vertices of different degree.

    _roots is for callers in this package that hold automorphisms of g,
    checked edge by edge: the least vertex of each of their vertex orbits,
    in increasing order, or None for every vertex.  Only the roots' spheres
    are swept, with the same result.  An automorphism mapping a root r to
    v maps every S_i(r) onto S_i(v) and keeps the counts of neighbors on
    the spheres next to it, so v fails exactly when r does.  Vertex 0 is a
    root and sets the reference counts, and the first vertex to fail is a
    root, with the same witness (v, w).
    """
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
    # (b_i, c_i) of (v, w) count w's neighbors on the spheres i+1 and i-1
    # around v (b_d is 0).  The first w of sphere i sets (b_i, c_i), so the w
    # of v that fail are those of a walk in w order; the least is reported.
    nbrs = g.masks
    ref = [None] * (d + 1)
    for v in range(g.n) if _roots is None else _roots:
        sphere = dd.sphere_masks[v] + (0,)
        failures = []
        for i in range(1, d + 1):
            above, below = sphere[i + 1], sphere[i - 1]
            for w in _bits(sphere[i]):
                counts = ((nbrs[w] & above).bit_count(), (nbrs[w] & below).bit_count())
                if ref[i] is None:
                    ref[i] = counts
                elif counts != ref[i]:
                    which = "b" if counts[0] != ref[i][0] else "c"
                    failures.append((w, f"{which}_{i} not constant"))
                    break
        if failures:
            w, reason = min(failures)
            return NotDistanceRegular(witness=(v, w), reason=reason)
    return IntersectionArray(b=(k, *(bc[0] for bc in ref[1:d])), c=tuple(bc[1] for bc in ref[1:]))


def is_distance_regular(g: Graph) -> bool:
    return isinstance(intersection_array(g), IntersectionArray)


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int


def srg_params(g: Graph):
    """(n, k, lambda, mu) when g is strongly regular of diameter 2, else None.

    That holds exactly when g is connected and distance-regular of diameter
    2, with array {k, b_1; 1, c_2}; then lambda = k - 1 - b_1, mu = c_2."""
    dd = distances(g)
    if not dd.connected or dd.diameter != 2:
        return None
    arr = intersection_array(g, dd)
    if not arr:
        return None
    k = arr.degree
    return SrgParams(n=g.n, k=k, lam=k - 1 - arr.b[1], mu=arr.c[1])


def k_sequence(ia: IntersectionArray) -> tuple:
    """Sphere sizes (k_0, ..., k_d) from the recurrence k_{i+1} = k_i b_i / c_{i+1}."""
    ks = [1]
    for i in range(ia.diameter):
        num = ks[i] * ia.b[i]
        if num % ia.c[i] != 0:
            raise ValueError(f"non-integral k_{i + 1} in {ia}")
        ks.append(num // ia.c[i])
    return tuple(ks)
