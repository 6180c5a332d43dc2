"""Rule engine certifying absence of quantum symmetry, class by class.

A graph has no quantum symmetry when its quantum automorphism group
collapses to the classical one.  For distance-regular graphs this can
often be established by finitely checkable combinatorial conditions,
one distance class at a time: each rule below certifies that the
generator pairs indexed by vertex pairs at a fixed distance m behave
classically, provided its stated preconditions hold in the graph.  The
engine records every successful rule application in a certificate that
an independent auditor re-verifies from the graph alone.

Rules that quantify over vertex pairs check, on class m, one pair per
orbit of a group of automorphisms, the pairs autgroup.covered_pairs
lists for its generators, which the certificate records for the auditor.
That is one pair per class on a distance-transitive graph, and every
ordered pair of the class under the trivial group.  A proof at (j, l)
carries over to (s(j), s(l)) for every automorphism s, because s induces
an automorphism of C(Qut(G)) mapping u_jl to u_s(j)s(l).

The engine never concludes that a graph has quantum symmetry from rule
failure.  When some class stays open it looks for two non-identity
automorphisms with disjoint supports, which prove quantum symmetry (see
autgroup.disjoint_automorphisms), and the audit checks the pair edge by
edge.  A HAS_QSYM verdict rests on that pair alone; INCONCLUSIVE is an
honest third verdict.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, repeat
from math import comb
from operator import and_, getitem, indexOf, itemgetter

from .autgroup import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    automorphism_group,
    covered_pairs,
    disjoint_automorphisms,
    is_automorphism,
)
from .drg import intersection_array
from .expected import HAS_QSYM, NO_QSYM
from .graph import (
    DisconnectedGraphError,
    Graph,
    _bits,
    complement,
    distances,
    girth,
)
from .io import _check_version, _encode, _Record, to_graph6

INCONCLUSIVE = "INCONCLUSIVE"

FORMAT_VERSION = 4

# distance lookups allowed per class for the pair-rule searches (pivots and witnesses)
DEFAULT_SEARCH_BUDGET = 100_000_000

RULE_GIRTH5 = "girth-at-least-5"
RULE_ONE_COMMON = "one-common-neighbor"
RULE_TWO_COMMON = "two-common-neighbors"
RULE_CUBIC_D2 = "cubic-distance-two"
RULE_ARRAY_STEP = "array-step"
RULE_CUBIC_STEP = "cubic-step"
RULE_UNIQUE_FAR = "unique-at-distance"
RULE_PIVOT = "pivot-intersection"
RULE_KRIT = "distance-witness"
RULE_PIVOT_KRIT = "pivot-witness"
RULE_COMPLEMENT = "complement-transfer"
RULE_DISJOINT = "disjoint-automorphisms"

class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Per-class allowance of elementary distance lookups, and the witness
    scans of the class: scans maps (l, j, p), j < p, to the least witness
    killing rival p for the pair (j, l), or None, and the scan's charge.
    The scan and its charge are symmetric in j and p, so the pair (p, l)
    with rival j reads the same entry."""

    __slots__ = ("limit", "used", "scans")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.scans = {}

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _BudgetExceeded


# deepest nesting of dicts and lists in an application's params (the engine
# writes 5); json's own recursion guard stops at a depth that varies by Python
PARAMS_DEPTH = 100
_CONTAINERS = (dict, list)


# set while Certificate.from_json loads what json has just parsed, which no
# caller holds: _load_params then takes the params as they are
_PARSED = ContextVar("_PARSED", default=False)


def _load_params(params: dict) -> dict:
    """params, checked for depth, copied unless json has just parsed them
    (see _PARSED): a certificate shares no mutable part with its caller."""
    if _PARSED.get():
        copy = params
    else:
        try:
            copy = json.loads(json.dumps(params))
        except RecursionError:
            raise ValueError("Application.params is nested too deeply") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"Application.params is not JSON: {exc}") from None
    level, depth = [copy], 1  # the dicts and lists at this depth, json's own types
    while level and depth <= PARAMS_DEPTH:
        level = [
            x
            for c in level
            for x in (c.values() if type(c) is dict else c)
            if type(x) in _CONTAINERS
        ]
        depth += 1
    if level:
        raise ValueError("Application.params is nested too deeply")
    return copy


def _load_generators(gens: list) -> tuple:
    if not all(isinstance(p, list) for p in gens):
        raise ValueError("Certificate.generators holds a permutation that is not a list")
    return tuple(tuple(p) for p in gens)


@dataclass(frozen=True)
class Application(_Record):
    """One successful rule application; m is None for whole-graph rules."""

    rule: str
    m: int | None
    params: dict = field(metadata={"load": _load_params})


@dataclass(frozen=True)
class Certificate(_Record):
    label: str
    n: int
    degree: int | None
    diameter: int
    verdict: str
    certified: tuple
    open_classes: tuple
    applications: tuple = field(
        metadata={"load": lambda apps: tuple(Application.from_dict(a) for a in apps)}
    )
    generators: tuple = field(metadata={"load": _load_generators})
    notes: tuple
    graph6: str

    def _json_object(self) -> dict:
        return {"format_version": FORMAT_VERSION, **super()._json_object()}

    def to_json(self) -> str:
        # single line, suitable for batch logs
        return super().to_json(separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        _check_version(data, FORMAT_VERSION, "unsupported certificate format: {!r}")
        return super().from_dict({k: v for k, v in data.items() if k != "format_version"})

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """The certificate JSON text holds, as from_dict reads it, but with
        the params json has just parsed taken as they are, not copied."""
        token = _PARSED.set(True)
        try:
            return super().from_json(text)
        finally:
            _PARSED.reset(token)

    def to_text(self) -> str:
        lines = [f"certificate: {self.label}"]
        lines.append(f"  vertices: {self.n}")
        if self.degree is not None:
            lines.append(f"  degree: {self.degree}")
        lines.append(f"  diameter: {self.diameter}")
        lines.append(f"  verdict: {self.verdict}")
        if self.applications:
            lines.append("  applications:")
            for i, app in enumerate(self.applications, start=1):
                where = f"class {app.m}" if app.m is not None else "whole graph"
                params = _render_params(app.params)
                lines.append(f"    {i}. {app.rule}  {where}  {params}".rstrip())
        open_classes = ", ".join(str(m) for m in self.open_classes) or "none"
        lines.append(f"  open classes: {open_classes}")
        if self.generators:
            lines.append(f"  generators recorded: {len(self.generators)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  graph6: {self.graph6}")
        return "\n".join(lines) + "\n"


def _render_params(params: dict) -> str:
    parts = []
    for key, value in params.items():
        if isinstance(value, (list, tuple, dict)):
            parts.append(f"{key}={json.dumps(value, separators=(',', ':'))}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


# ------------------------------------------------------------ rule checks
#
# Each structural rule is one function (inv, m, certified) -> params | None:
# the params an application of the rule to class m records, given the
# classes already certified, or None when its precondition fails.  The
# engine records what it returns; the audit calls it again on its own
# invariants and compares.


class _Invariants:
    """A graph and its distances, with the girth, the intersection array
    and the automorphism group computed on first use, the group within
    DEFAULT_NODE_BUDGET search nodes.  The engine builds one
    per graph per command and hands it on; the audit builds its own and
    never calls group.

    roots starts as every vertex; cover, the one place that changes it,
    sets it to the least vertex of each vertex orbit of automorphisms
    checked edge by edge: certify's searched group, the audit's recorded
    generators once it has checked them, analyze's searched group.  The
    girth, the array and unique-at-distance sweep the roots alone, which
    gives the graph's (see girth and intersection_array); so does analyze's
    clique number (see clique_number), which no rule reads."""

    def __init__(self, g: Graph):
        self.g = g
        self.dd = dd = distances(g)
        self.roots = range(g.n)
        self.girth = cache(lambda: girth(g, dd, _roots=self.roots))
        self.array = cache(lambda: intersection_array(g, dd, _roots=self.roots))
        self.group = cache(lambda: automorphism_group(g, DEFAULT_NODE_BUDGET, dd))

    def cover(self, generators):
        """covered_pairs of generators, automorphisms of g already checked
        edge by edge; the roots become the least vertex of each of their
        vertex orbits, the first vertices of the pairs covering class 0."""
        covered = covered_pairs(generators, self.dd)
        self.roots = [r for r, _ in covered(0)]
        return covered


def _at_least(gir: int | None, bound: int) -> bool:
    return gir is not None and gir >= bound


def _girth5(inv: _Invariants, m: int, certified) -> dict | None:
    """Girth at least five certifies the adjacency class."""
    if m == 1 and _at_least(inv.girth(), 5):
        return {"girth": inv.girth()}
    return None


def _one_common(inv: _Invariants, m: int, certified) -> dict | None:
    """Every adjacent pair has exactly one common neighbor: class 1."""
    masks = inv.g.masks
    if m == 1 and all((masks[u] & masks[v]).bit_count() == 1 for u, v in inv.g.edges):
        return {"common_neighbors": 1}
    return None


def _two_common(inv: _Invariants, m: int, certified) -> dict | None:
    """Clique number three, and exactly two common neighbors for every pair
    at distance one or two: class 1.

    The clique number is read off the same pair sweep.  Once every edge
    has two common neighbors there is a triangle: an edge and either of
    them.  An edge whose two common neighbors are adjacent lies in a K4;
    and in a K4 each edge's two common neighbors are the K4's other two
    vertices, which are adjacent.  So the clique number is three exactly
    when no edge's two common neighbors are adjacent."""
    g, dd = inv.g, inv.dd
    if m != 1 or dd.diameter < 2:  # a complete graph's clique number is not 3
        return None
    masks = g.masks
    for u, spheres in enumerate(dd.sphere_masks):
        for v in _bits((spheres[1] | spheres[2]) >> (u + 1) << (u + 1)):
            common = masks[u] & masks[v]
            if common.bit_count() != 2:
                return None
            if spheres[1] >> v & 1 and common & masks[common.bit_length() - 1]:
                return None  # u, v and their two common neighbors form a K4
    return {"clique_number": 3, "common_neighbors": 2}


def _cubic_d2(inv: _Invariants, m: int, certified) -> dict | None:
    """A cubic graph of girth at least five with class 1 certified: class 2."""
    if m == 2 and inv.g.regular_degree() == 3 and 1 in certified and _at_least(inv.girth(), 5):
        return {"degree": 3, "girth": inv.girth()}
    return None


def _array_step(inv: _Invariants, m: int, certified) -> dict | None:
    """Intersection-array step from a certified class m-1 to class m, all
    variants with c_m >= 2: variant a: c_2 = 1 and b_1 + 1 = b_0; b: c_2 = 1
    and b_1 + 2 = b_0; c: c_2 = 2, m = 2 and b_1 + 3 = b_0."""
    arr = inv.array() if (m - 1) in certified else None
    if not arr or arr.c_at(m) < 2:
        return None
    b0, b1, c2 = arr.b[0], arr.b[1], arr.c_at(2)
    if c2 == 1 and b1 + 1 == b0:
        variant = "a"
    elif c2 == 1 and b1 + 2 == b0:
        variant = "b"
    elif c2 == 2 and m == 2 and b1 + 3 == b0:
        variant = "c"
    else:
        return None
    return {"variant": variant, "b0": b0, "b1": b1, "c2": c2, "c_m": arr.c_at(m)}


def _cubic_step(inv: _Invariants, m: int, certified) -> dict | None:
    """Cubic intersection-array step with classes 1..m-1 certified: variant
    i: b_{m-1} = 1; variant ii: b_{m-1} = 2, b_m = c_m = 1 and girth >= 2m.
    The degree is tested first, so a graph that is not cubic builds no
    array here."""
    if inv.g.regular_degree() != 3 or not all(i in certified for i in range(1, m)):
        return None
    arr = inv.array()
    if not arr:
        return None
    if arr.b_at(m - 1) == 1:
        return {"variant": "i", "b_prev": 1}
    if (
        arr.b_at(m - 1) == 2
        and arr.b_at(m) == 1
        and arr.c_at(m) == 1
        and _at_least(inv.girth(), 2 * m)
    ):
        return {"variant": "ii", "b_prev": 2, "b_m": 1, "c_m": 1, "girth": inv.girth()}
    return None


def _unique_far(inv: _Invariants, m: int, certified) -> dict | None:
    """Every vertex has exactly one vertex at distance m: every root does,
    as automorphisms keep the sphere sizes."""
    if all(inv.dd.sphere_masks[r][m].bit_count() == 1 for r in inv.roots):
        return {"count": 1}
    return None


_STRUCTURAL = {
    RULE_GIRTH5: _girth5,
    RULE_ONE_COMMON: _one_common,
    RULE_TWO_COMMON: _two_common,
    RULE_CUBIC_D2: _cubic_d2,
    RULE_ARRAY_STEP: _array_step,
    RULE_CUBIC_STEP: _cubic_step,
    RULE_UNIQUE_FAR: _unique_far,
}


def _witness_valid(dd, m: int, j: int, l: int, p: int, q: int) -> bool:
    """The witness q kills rival p for the pair (j, l): q separates j from
    p, and l is the only vertex at distance d(q,l) from q lying at distance
    m from both j and p, counted by the popcount of the three spheres'
    AND.  As d is symmetric, d(q, j) and d(q, l) are read off the rows of
    j and l, and p is tested against q's sphere through j."""
    masks = dd.sphere_masks
    around = masks[q]
    return (
        not around[dd.row(j)[q]] >> p & 1
        and (around[dd.row(l)[q]] & masks[j][m] & masks[p][m]).bit_count() == 1
    )


def _first_witness(dd, m: int, j: int, l: int, p: int) -> tuple:
    """(q, charge): the least witness q killing rival p for the pair
    (j, l), or None, and what testing every candidate up to it in turn
    would charge.

    Only a vertex separating j from p can be one, so the scan walks the
    bits of their separator mask, all vertices but those in a sphere of
    both, in increasing order and runs _witness_valid's popcount test on
    each.  The charge is 2 for each separation test, then 2 per vertex of
    q's sphere through l when q separates."""
    masks, lrow = dd.sphere_masks, dd.row(l)
    # the spheres around one vertex are disjoint, so their sum is their union
    separators = ((1 << len(lrow)) - 1) & ~sum(map(and_, masks[j], masks[p]))
    both = masks[j][m] & masks[p][m]
    last, spent = -1, 0  # the last separator tested, and the charge up to it
    while separators:
        low = separators & -separators
        separators ^= low
        q = low.bit_length() - 1
        sphere = masks[q][lrow[q]]
        spent += 2 * (q - last + sphere.bit_count())  # the skipped vertices, q's test, q's sphere
        if (sphere & both).bit_count() == 1:
            return q, spent
        last = q
    return None, spent + 2 * (len(lrow) - 1 - last)


def _witness_of(dd, m: int, j: int, l: int, p: int, bud) -> int | None:
    """The witness _first_witness finds, scanned once per class and kept
    in bud.scans; every read, the first included, spends the scan's
    charge."""
    key = (l, j, p) if j < p else (l, p, j)
    scan = bud.scans.get(key)
    if scan is None:
        scan = bud.scans[key] = _first_witness(dd, m, j, l, p)
    bud.spend(scan[1])
    return scan[0]


def _pivots_leave(dd, m: int, j: int, l: int, pivots) -> int:
    """Bitmask of the rivals of j, the other vertices at distance m from l,
    that lie at the same distance as j from every pivot (read off j's row)."""
    masks, jrow = dd.sphere_masks, dd.row(j)
    left = masks[l][m] & ~(1 << j)
    for q in pivots:
        left &= masks[q][jrow[q]]
    return left


# The pair rules are one argument: the partner j of l is pinned among the
# rivals (the other vertices at distance m from l) by pivots, vertices in
# certified classes from l whose distances tell a rival from j, and by
# witnesses, which kill single rivals.  Each rule records these fields as
# [j, l, *fields], one entry per covered pair, under the key "pairs".
_PAIR_FIELDS = {
    RULE_PIVOT: ("pivots",),
    RULE_KRIT: ("witnesses",),
    RULE_PIVOT_KRIT: ("pivots", "witnesses"),
}

# pivot-set sizes each pair rule tries, in order
_PIVOT_SIZES = {RULE_PIVOT: (1, 2, 3), RULE_KRIT: (), RULE_PIVOT_KRIT: (0, 1, 2, 3)}

# the rules the engine tries, in order, on class 1 and on each class beyond
# it: the structural rules first, then the pair rules
_CLASS_RULES = (
    (RULE_GIRTH5, RULE_ONE_COMMON, RULE_TWO_COMMON, RULE_KRIT),
    (RULE_ARRAY_STEP, RULE_CUBIC_D2, RULE_CUBIC_STEP, RULE_UNIQUE_FAR)
    + (RULE_PIVOT, RULE_KRIT, RULE_PIVOT_KRIT),
)


# ------------------------------------------------------------- the engine


def _class_search(dd, m, pairs, certified, bud, rule) -> list | None:
    """The entries [j, l, *fields] of a pair rule pinning each pair (j, l)
    of pairs as partners, in order, in one loop over the class; None at
    the first pair it cannot pin, where the search stops.

    For each pair, where the rule allows witnesses, each rival of j (the
    other vertices at distance m from l) first gets its smallest witness.
    Then the first pivot set, by size and then in lexicographic order,
    that separates j from every rival without a witness is taken, and the
    rivals it leaves are recorded with their witnesses.

    Neither search takes a Python step per candidate.  _first_witness
    walks only the vertices separating j from the rival, once per rival
    pair {j, p} around l in the class: bud keeps the scans for every rule
    tried on it, and _witness_of charges every read the scan's charge.
    The pivots eligible for l, the vertices in certified classes from l,
    are listed once per l.  Pivot q's agreement mask is q's sphere at j's
    distance from q, read off a list of these spheres built when j changes
    (the pairs come grouped by j, and only the current j's list is kept):
    bit p is set when p lies at the distance from q that j does.  So a set
    separates j from every unkilled rival when the AND of its masks with
    the unkilled rivals is 0, and _first_meet finds the first such set,
    each set's last member in one C-level scan.  The charges are the
    nominal ones of testing every candidate of every pair in turn: a
    witness candidate as _first_witness says, the pivot-only rule n per
    pair for its eligible list, and each pivot set tried
    2 * size * |rivals| + 1 lookups.  They are charged once per witness
    scan read and once per pivot-set size, in the order the one-at-a-time
    search meets them, so the search runs out at the scan or size where
    that search would, and _first_meet tries only the sets the budget
    pays for.
    """
    masks = dd.sphere_masks
    sizes = _PIVOT_SIZES[rule]
    pivoted, witnessed = (name in _PAIR_FIELDS[rule] for name in ("pivots", "witnesses"))
    # the pivot-only rule pays n per pair for its eligible list
    listing = len(masks) if rule == RULE_PIVOT else 0
    eligibles = {}  # l -> the pivots eligible for l
    last_j = same = None  # masks[q][d(j, q)] for every q, for the current j
    found = []
    for j, l in pairs:
        rivals = unkilled = masks[l][m] & ~(1 << j)
        if witnessed:
            # each rival's least witness, in increasing order of rivals
            witness = {p: _witness_of(dd, m, j, l, p, bud) for p in _bits(rivals)}
            unkilled &= ~sum(1 << p for p, q in witness.items() if q is not None)
        if listing:
            bud.spend(listing)
        pivots, left = [], rivals
        if unkilled or 0 in sizes:
            if not sizes:
                return None  # witnesses only, and some rival has none
            eligible = eligibles.get(l)
            if eligible is None:
                # the certified classes' spheres around l are disjoint
                eligible = eligibles[l] = list(_bits(sum(masks[l][t] for t in certified)))
            if j != last_j:
                last_j, same = j, list(map(getitem, masks, dd.row(j)))
            agree = list(map(same.__getitem__, eligible))
            for size in sizes:
                cost = 2 * size * rivals.bit_count() + 1
                sets = comb(len(eligible), size)
                hit = _first_meet(agree, size, min((bud.limit - bud.used) // cost, sets), unkilled)
                if hit is None:  # none of the sets the budget pays for separates
                    bud.spend(sets * cost)  # raises if one was unaffordable
                    continue
                bud.spend((hit[0] + 1) * cost)
                pivots = [eligible[i] for i in hit[1]]
                left = reduce(and_, map(same.__getitem__, pivots), rivals)
                break
            else:  # no pivot set of any size separates
                return None
        entry = [j, l, pivots] if pivoted else [j, l]
        if witnessed:
            entry.append([[p, witness[p]] for p in _bits(left)])
        found.append(entry)
    return found


def _first_meet(masks, size: int, limit: int, top: int) -> tuple | None:
    """(rank, members) of the first size-subset of the masks, among the
    first limit in the lexicographic order of combinations, whose AND with
    top is 0; None when there is none.

    The first member runs in a plain Python loop, the rank counting the
    sets passed over, and the rest is the first (size - 1)-subset after it
    whose AND with top and the first member's mask is 0.  One C-level scan
    finds the last member, so size 1 is one scan and size 2 one scan per
    first member."""
    if size == 0:
        return (0, ()) if limit > 0 and not top else None
    if size == 1:
        try:
            hit = indexOf(map(and_, repeat(top), masks[:limit]), 0)
        except ValueError:
            return None
        return hit, (hit,)
    rank, count = 0, len(masks)
    for first in range(count - size + 1):
        if rank >= limit:
            break
        meet = top & masks[first]
        if size == 2:  # the size-1 scan inline, no call or second slice: the hottest loop
            room = min(count - 1 - first, limit - rank)
            try:
                last = indexOf(map(and_, repeat(meet), masks[first + 1 : first + 1 + room]), 0)
            except ValueError:
                rank += room
                continue
            return rank + last, (first, first + 1 + last)
        found = _first_meet(masks[first + 1 :], size - 1, limit - rank, meet)
        if found is not None:
            return rank + found[0], (first, *[first + 1 + i for i in found[1]])
        rank += comb(count - 1 - first, size - 1)
    return None


def certify(
    g: Graph | _Invariants,
    *,
    label: str | None = None,
    mode: str = "auto",
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> Certificate:
    """Certify absence of quantum symmetry for a connected graph, or its
    presence by two disjoint automorphisms when some class stays open.

    The label names the graph in the certificate.  g may be given as its
    _Invariants, whose distances, array and group are then not computed
    again.  Mode "auto" covers the pairs of each class under the
    automorphism group, mode "all-pairs" under the trivial group; the
    disjoint automorphisms are sought in both.  The search budget must be
    a non-negative integer, a bool not being one; the automorphism searches
    run within DEFAULT_NODE_BUDGET nodes.
    """
    if mode not in ("auto", "all-pairs"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    if not _is_int(search_budget) or search_budget < 0:
        raise ValueError(f"search_budget must be a non-negative integer, got {search_budget!r}")
    inv = g if isinstance(g, _Invariants) else _Invariants(g)
    g, dd = inv.g, inv.dd
    if not dd.connected:
        raise DisconnectedGraphError("certification requires a connected graph")

    header = _header(g, dd, label or f"graph on {g.n} vertices", to_graph6(g))
    notes: list = []
    generators: tuple = ()
    searched_out = False  # the automorphism search exceeded its node budget
    if mode == "auto":
        try:
            generators = inv.group().generators
        except SearchBudgetExceeded:
            searched_out = True
            notes.append("automorphism search budget exceeded; all-pairs coverage")
    covered = inv.cover(generators)

    certified: set = set()
    apps: list = []
    for m in range(1, dd.diameter + 1):
        bud = _Budget(search_budget)  # the class's pair rules share it
        for rule_id in _CLASS_RULES[m > 1]:
            check = _STRUCTURAL.get(rule_id)
            if check is not None:
                params = check(inv, m, certified)
            else:
                try:
                    found = _class_search(dd, m, covered(m), certified, bud, rule_id)
                except _BudgetExceeded:
                    notes.append(f"class {m}: search budget of {search_budget} distance lookups exhausted")
                    break
                params = None if found is None else {"pairs": found}
            if params is not None:
                apps.append(Application(rule_id, m, params))
                certified.add(m)
                break

    if len(certified) < dd.diameter and not searched_out:
        try:
            pair = disjoint_automorphisms(g, inv.group().generators, dd)
        except SearchBudgetExceeded:
            pair = None
            notes.append("automorphism search budget exceeded; no disjoint automorphisms recorded")
        if pair is not None:
            apps.append(Application(RULE_DISJOINT, None, {"sigma": list(pair[0]), "tau": list(pair[1])}))

    return _certificate(header, certified, apps, generators, notes)


def _header(g: Graph, dd, label: str, graph6: str) -> dict:
    """The certificate fields that describe the graph; graph6 is g's
    graph6 string."""
    return {
        "label": label,
        "n": g.n,
        "degree": g.regular_degree(),
        "diameter": dd.diameter,
        "graph6": graph6,
    }


def _certificate(header: dict, certified, applications, generators=(), notes=()) -> Certificate:
    """The one constructor of certificates: the applications certify the
    classes in certified, and the other classes up to the diameter stay
    open.  The verdict is HAS_QSYM when a disjoint-automorphisms
    application is present, otherwise NO_QSYM when no class is open and
    INCONCLUSIVE when one is.  The generators are kept only when a pair
    rule uses them."""
    open_classes = tuple(m for m in range(1, header["diameter"] + 1) if m not in certified)
    uses_pairs = any(a.rule in _PAIR_FIELDS for a in applications)
    has_pair = any(a.rule == RULE_DISJOINT for a in applications)
    return Certificate(
        verdict=HAS_QSYM if has_pair else INCONCLUSIVE if open_classes else NO_QSYM,
        certified=tuple(sorted(certified)),
        open_classes=open_classes,
        applications=tuple(applications),
        generators=generators if uses_pairs else (),
        notes=tuple(notes),
        **header,
    )


# ------------------------------------------------------- complement route


def transfer_certificate(cert: Certificate, g: Graph, label: str | None = None) -> Certificate:
    """Turn a NO_QSYM certificate for complement(g) into one for g.

    Sound because a graph and its complement have the same automorphisms,
    classical and quantum alike.  The certificate may not itself be a
    complement transfer, so transfers nest one level deep, and it must pass
    its audit against complement(g): the transfer refuses, with a
    ValueError naming the failure, whatever the audit of the result would.
    """
    app = Application(RULE_COMPLEMENT, None, {"complement": cert.to_dict()})
    failure = _complement_failure(app, g)
    if failure is not None:
        raise ValueError(f"cannot transfer the certificate: {failure}")
    dd = distances(g)
    header = _header(g, dd, label or f"complement of {cert.label}", to_graph6(g))
    return _certificate(header, range(1, dd.diameter + 1), (app,))


def certify_via_complement(g: Graph, *, label: str | None = None, **options) -> Certificate:
    inner = certify(complement(g), **options)
    return transfer_certificate(inner, g, label=label)


# ------------------------------------------------------------------ audit


def audit(cert: Certificate, g: Graph) -> AuditResult:
    """Re-verify every claim of a certificate from the graph alone.

    The recorded graph6 string must be g's, and g connected.  The recorded
    generators must be automorphisms, and the applications are replayed in
    order, on distances, girth and array computed here, the last two off
    one root per vertex orbit of the checked generators: a structural
    rule's function must return exactly the recorded params, and a pair
    rule's pivots and witnesses must pin every recorded pair, the pairs of
    class m being exactly those covered_pairs lists for the recorded
    generators; with none, every ordered pair of the class.  A
    disjoint-automorphisms application must come last and record exactly
    two non-identity automorphisms with disjoint supports, which are
    checked edge by edge; nothing is searched.

    The audit then rebuilds the certificate with the constructor certify
    uses, from g and the replayed classes, and compares every field as
    JSON, so a true never stands for a 1.  Only the label and the notes
    are taken as recorded.  Returns a falsy result naming the first
    failure.  A certificate built in Python skips from_dict's schema, and
    its fields are trusted to have the types from_dict enforces.
    """
    failure = _audit_failure(cert, g)
    return AuditResult(failure is None, failure)


def _audit_failure(cert: Certificate, g: Graph) -> str | None:
    """The first failure audit finds, or None."""
    graph6 = to_graph6(g)
    if cert.graph6 != graph6:
        return "graph6 string does not match the graph"
    inv = _Invariants(g)
    dd = inv.dd
    if not dd.connected:
        return "graph is disconnected"
    gens = cert.generators
    if not all(is_automorphism(g, p) for p in gens):
        return "recorded generator is not an automorphism"
    covered = inv.cover(gens)

    certified: set = set()
    for index, app in enumerate(cert.applications, start=1):
        m = app.m
        if app.rule == RULE_COMPLEMENT:
            failure = _complement_failure(app, g)
        elif app.rule == RULE_DISJOINT:
            failure = _disjoint_failure(app, g)
            if failure is None and index < len(cert.applications):
                failure = "disjoint automorphisms are not the last application"
        elif not _is_int(m) or not 1 <= m <= dd.diameter:
            failure = "class out of range"
        elif m in certified:
            failure = f"class {m} certified twice"
        else:
            failure = _class_failure(app, inv, certified, covered)
        if failure is not None:
            return f"application {index} ({app.rule}, m={m}): {failure}"
        if app.rule == RULE_COMPLEMENT:
            certified.update(range(1, dd.diameter + 1))
        elif app.rule != RULE_DISJOINT:
            certified.add(m)

    header = _header(g, dd, cert.label, graph6)
    rebuilt = _certificate(header, certified, cert.applications, gens, cert.notes)._json_object()
    return _compare(cert._json_object(), rebuilt, "the certificate the replay rebuilds")


def _compare(given: dict, rebuilt: dict, source: str) -> str | None:
    """Why the values of given are not those of rebuilt as JSON, so a true
    never stands for a 1, or None: a failure names the keys whose values
    differ.  A value that is the rebuilt one itself is not encoded: the
    applications of an all-pairs certificate run to 100 KB."""

    def text(value) -> str:
        return json.dumps(value, default=_encode, sort_keys=True)

    differ = sorted(
        key
        for key in given.keys() | rebuilt.keys()
        if key not in given
        or key not in rebuilt
        or (given[key] is not rebuilt[key] and text(given[key]) != text(rebuilt[key]))
    )
    return f"fields {differ} differ from {source}" if differ else None


def _complement_failure(app: Application, g: Graph) -> str | None:
    """Why the application is not exactly a whole-graph transfer of a NO_QSYM
    certificate of complement(g), itself no transfer, that passes its
    audit, or None."""
    if app.m is not None or set(app.params) != {"complement"}:
        return "complement transfer records a class or params other than the complement"
    try:
        inner = Certificate.from_dict(app.params["complement"])
    except ValueError as exc:
        return f"embedded certificate malformed: {exc}"
    if inner.verdict != NO_QSYM:
        return "embedded complement certificate is not NO_QSYM"
    if any(a.rule == RULE_COMPLEMENT for a in inner.applications):
        return "embedded certificate is itself a complement transfer"
    failure = _audit_failure(inner, complement(g))
    return None if failure is None else f"embedded certificate fails audit: {failure}"


def _disjoint_failure(app: Application, g: Graph) -> str | None:
    """Why the application is not exactly two non-identity automorphisms
    sigma and tau of g with disjoint supports, or None."""
    if app.m is not None or set(app.params) != {"sigma", "tau"}:
        return "disjoint automorphisms record a class or params other than sigma and tau"
    supports = []
    for name in ("sigma", "tau"):
        perm = app.params[name]
        if not is_automorphism(g, perm):
            return f"{name} is not an automorphism of the graph"
        supports.append({v for v in range(g.n) if perm[v] != v})
        if not supports[-1]:
            return f"{name} is the identity"
    if supports[0] & supports[1]:
        return "the supports of sigma and tau meet"
    return None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _vertices(xs, n: int) -> bool:
    """Whether every x in xs is a vertex: an int, never a bool, in range(n)."""
    for x in xs:
        if type(x) is not int or not 0 <= x < n:
            return False
    return True


def _pair_claims(app, n, covered):
    """The (j, l, pivots, witnesses) list a pair rule must prove, or an
    error string.

    The recorded pairs must be exactly the covered pairs of the class,
    which covered_pairs lists.  Pivots and witnesses are the values
    recorded after the pair under the rule's _PAIR_FIELDS, and empty where
    the rule records none.
    """
    names = _PAIR_FIELDS[app.rule]
    entries = app.params.get("pairs")
    if set(app.params) != {"pairs"} or not isinstance(entries, list):
        return f"parameters {sorted(app.params)} are not ['pairs'] holding a list"
    width, pivoted, witnessed = 2 + len(names), "pivots" in names, "witnesses" in names
    claims = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == width):
            return f"entry {entry!r} is not [j, l, {', '.join(names)}]"
        j, l = entry[0], entry[1]
        if not (type(j) is int and type(l) is int and 0 <= j < n and 0 <= l < n):
            return f"pair {[j, l]!r} is not a pair of vertices"
        claims.append((j, l, entry[2] if pivoted else (), entry[-1] if witnessed else ()))
    if [(j, l) for j, l, _, _ in claims] != covered:
        return f"recorded pairs are not the covered pairs of class {app.m}"
    return claims


def _replay_pair(dd, m, j, l, pivots, witnesses, certified) -> str | None:
    """Why the recorded pivots and witnesses fail to pin j as l's partner,
    or None when they do: every pivot lies in a certified class from l,
    and the rivals the pivots leave are exactly the witnessed ones."""
    n = len(dd.sphere_masks)
    if not (isinstance(pivots, (list, tuple)) and len(pivots) <= 3 and _vertices(pivots, n)):
        return "pivots are not a list of at most 3 vertices"
    if not (
        isinstance(witnesses, (list, tuple))
        and {*map(type, witnesses)} <= {list, tuple}
        and {*map(len, witnesses)} <= {2}
        and _vertices(chain.from_iterable(witnesses), n)
    ):
        return "witnesses are not a list of [rival, witness] vertex pairs"
    lrow = dd.row(l)
    for q in pivots:
        t = lrow[q]
        if t not in certified:
            return f"pivot {q} is at distance {t} from l, class {t} not certified"
    left = _pivots_leave(dd, m, j, l, pivots)
    witnessed = {*map(itemgetter(0), witnesses)}
    if sum(map((1).__lshift__, witnessed)) != left:
        return f"pivots leave rivals {list(_bits(left))} but witnesses cover {sorted(witnessed)}"
    for p, q in witnesses:
        if not _witness_valid(dd, m, j, l, p, q):
            return f"witness {q} does not kill rival {p}"
    return None


def _class_failure(app: Application, inv: _Invariants, certified, covered) -> str | None:
    """Why the application does not certify its class m, or None: a
    structural rule's function must return exactly the recorded params,
    and a pair rule's pivots and witnesses must pin every covered pair."""
    m, rule = app.m, app.rule
    check = _STRUCTURAL.get(rule)
    if check is not None:
        actual = check(inv, m, certified)
        if actual is None:
            return f"{rule} does not hold for class {m}"
        return _compare(app.params, actual, f"the recomputed params {actual}")
    if rule not in _PAIR_FIELDS:
        return f"unknown rule {rule!r}"
    claims = _pair_claims(app, len(inv.dd.sphere_masks), covered(m))
    if isinstance(claims, str):
        return claims
    for j, l, pivots, witnesses in claims:
        failure = _replay_pair(inv.dd, m, j, l, pivots, witnesses, certified)
        if failure is not None:
            return f"pair ({j},{l}): {failure}"
    return None
