"""Rule engine certifying absence of quantum symmetry, class by class.

A graph has no quantum symmetry when its quantum automorphism group
collapses to the classical one.  For distance-regular graphs this can
often be established by finitely checkable combinatorial conditions,
one distance class at a time: each rule below certifies that the
generator pairs indexed by vertex pairs at a fixed distance m behave
classically, provided its stated preconditions hold in the graph.  The
engine records every successful rule application in a certificate that
an independent auditor re-verifies from the graph alone.

Rules that quantify over vertex pairs check, on class m, the pairs
(0, x) for the least x of each orbit on the sphere S_m(0) of the
generators fixing 0, where the generators are automorphisms transitive on
the vertices; the certificate records them for the auditor.  That is one
pair per class on a distance-transitive graph.  Without such generators
the group is trivial and every ordered pair of the class is checked.
A proof at (j, l) carries over to (s(j), s(l)) for every automorphism s,
because s induces an automorphism of C(Qut(G)) mapping u_jl to u_s(j)s(l).

The engine never concludes that a graph does have quantum symmetry from
rule failure; positive verdicts come only from the knowledge base of
recorded facts.  INCONCLUSIVE is an honest third verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import and_, indexOf

from .autgroup import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    automorphism_group,
    is_automorphism,
    sphere_orbits,
)
from .drg import intersection_array
from .expected import HAS_QSYM, NO_QSYM
from .families import FamilySpec, build, has_order, parse_family
from .graph import (
    DisconnectedGraphError,
    Graph,
    clique_number,
    common_neighbors,
    complement,
    distances,
    girth,
    is_connected,
)
from .io import _encode, _Record, to_graph6
from .knowledge import UNKNOWN_FACT, QsymFact, verdict_for

INCONCLUSIVE = "INCONCLUSIVE"

FORMAT_VERSION = 3

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
RULE_KNOWN = "known-quantum-symmetry"
RULE_COMPLEMENT = "complement-transfer"

class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Per-class allowance of elementary distance lookups."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _BudgetExceeded


# deepest nesting of dicts and lists in an application's params (the engine
# writes 5); json's own recursion guard stops at a depth that varies by Python
PARAMS_DEPTH = 100


def _load_params(params: dict) -> dict:
    try:
        copy = json.loads(json.dumps(params))
    except RecursionError:
        raise ValueError("Application.params is nested too deeply") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"Application.params is not JSON: {exc}") from None
    level, depth = [copy], 1  # the dicts and lists at this depth
    while level and depth <= PARAMS_DEPTH:
        level = [x for c in level for x in (c.values() if isinstance(c, dict) else c)]
        level, depth = [x for x in level if isinstance(x, (dict, list))], depth + 1
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
    family: str | None  # the family key certify was given; it fixes the recorded fact
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
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported certificate format: {version!r}")
        return super().from_dict({k: v for k, v in data.items() if k != "format_version"})

    # _Record's own, entered here so that perfbench/spans.py can wrap the
    # certificate loads alone
    from_json = _Record.__dict__["from_json"]

    def to_text(self) -> str:
        lines = [f"certificate: {self.label}"]
        lines.append(f"  vertices: {self.n}")
        if self.degree is not None:
            lines.append(f"  degree: {self.degree}")
        lines.append(f"  diameter: {self.diameter}")
        lines.append(f"  verdict: {self.verdict}")
        fact = verdict_for(self.family)
        lines.append(f"  knowledge base: {fact.verdict} ({fact.reason})")
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
    """A graph and its distances, with the girth, the intersection array and
    the automorphism group computed on first use.  The engine builds one per
    graph per command and hands it on; the audit builds its own and never
    calls group."""

    def __init__(self, g: Graph):
        self.g = g
        self.dd = dd = distances(g)
        self.girth = cache(lambda: girth(g, dd))
        self.array = cache(lambda: intersection_array(g, dd))
        self.group = cache(lambda node_budget: automorphism_group(g, node_budget))


def _at_least(gir: int | None, bound: int) -> bool:
    return gir is not None and gir >= bound


def _girth5(inv: _Invariants, m: int, certified) -> dict | None:
    """Girth at least five certifies the adjacency class."""
    if m == 1 and _at_least(inv.girth(), 5):
        return {"girth": inv.girth()}
    return None


def _one_common(inv: _Invariants, m: int, certified) -> dict | None:
    """Every adjacent pair has exactly one common neighbor: class 1."""
    g = inv.g
    if m == 1 and all(len(common_neighbors(g, u, v)) == 1 for u, v in g.edges):
        return {"common_neighbors": 1}
    return None


def _two_common(inv: _Invariants, m: int, certified) -> dict | None:
    """Clique number three, and exactly two common neighbors for every pair
    at distance one or two: class 1.  The pair sweep goes first, as it
    often fails at the first pair and is cheaper than the clique search."""
    g, dist = inv.g, inv.dd.dist
    if m != 1:
        return None
    if all(
        len(common_neighbors(g, u, v)) == 2
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dist[u][v] in (1, 2)
    ) and clique_number(g, dd=inv.dd) == 3:
        return {"clique_number": 3, "common_neighbors": 2}
    return None


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
    i: b_{m-1} = 1; variant ii: b_{m-1} = 2, b_m = c_m = 1 and girth >= 2m."""
    arr = inv.array() if all(i in certified for i in range(1, m)) else None
    if not arr or arr.degree != 3:
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
    """Every vertex has exactly one vertex at distance m."""
    if all(kv[m] == 1 for kv in inv.dd.kseq):
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


def _witness_valid(dd, m: int, j: int, l: int, p: int, q: int, bud=None) -> bool:
    """The witness q kills rival p for the pair (j, l): q separates j from
    p, and l is the only vertex at distance d(q,l) from q lying at distance
    m from both j and p, counted by the popcount of the three spheres'
    AND.  The engine passes its budget, charged 2 for the separation test
    and 2 per vertex of the sphere around q, as a scan of it would cost."""
    if bud is not None:
        bud.spend(2)
    row = dd.dist[q]
    if row[j] == row[p]:
        return False
    t = row[l]
    if bud is not None:
        bud.spend(2 * dd.kseq[q][t])
    masks = dd.sphere_masks
    return (masks[q][t] & masks[j][m] & masks[p][m]).bit_count() == 1


def _pivots_leave(dd, m: int, j: int, l: int, pivots) -> int:
    """Bitmask of the rivals of j, the other vertices at distance m from l,
    that lie at the same distance as j from every pivot."""
    masks = dd.sphere_masks
    left = masks[l][m] & ~(1 << j)
    for q in pivots:
        left &= masks[q][dd.dist[q][j]]
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

# (structural rules, pair rules) the engine tries, in order, on class 1
# and on each class beyond it
_CLASS_ONE_RULES = ((RULE_GIRTH5, RULE_ONE_COMMON, RULE_TWO_COMMON), (RULE_KRIT,))
_FAR_CLASS_RULES = (
    (RULE_ARRAY_STEP, RULE_CUBIC_D2, RULE_CUBIC_STEP, RULE_UNIQUE_FAR),
    (RULE_PIVOT, RULE_KRIT, RULE_PIVOT_KRIT),
)


# ------------------------------------------------------------- the engine


def _pair_search(dd, m, j, l, certified, bud, rule) -> dict | None:
    """Pivots and witnesses pinning j as l's partner under a pair rule.

    Where the rule allows witnesses, each rival first gets its smallest
    witness.  Then the first pivot set, by size and then in lexicographic
    order, that separates j from every rival without a witness is taken,
    and the rivals it leaves are recorded with their witnesses.

    The masks are indexed by vertex and come from dd.sphere_masks.  A
    pivot q's agreement mask is q's sphere at j's distance from q, ANDed
    with the mask of the unkilled rivals: bit p is set when unkilled rival
    p lies at the distance from q that j does.  So a set separates j from
    every unkilled rival when the AND of its masks is 0.  Each set tried
    costs 2 * size * |rivals| + 1 lookups whatever the test costs, charged
    in bulk: the search stops at the set whose charge exhausts the budget,
    having spent exactly what testing the sets one at a time would.
    """
    n = len(dd.dist)
    rivals = [p for p in dd.at_distance(l, m) if p != j]
    witness = {}
    if "witnesses" in _PAIR_FIELDS[rule]:
        for p in rivals:
            witness[p] = next(
                (q for q in range(n) if _witness_valid(dd, m, j, l, p, q, bud)), None
            )
    killed = sum(1 << p for p, q in witness.items() if q is not None)
    unkilled = _pivots_leave(dd, m, j, l, ()) & ~killed
    if rule == RULE_PIVOT:
        bud.spend(n)  # the pivot-only rule pays for its eligible list

    def pinned(pivots):
        left = _pivots_leave(dd, m, j, l, pivots)
        return {
            "pivots": list(pivots),
            "witnesses": [[p, witness[p]] for p in rivals if left >> p & 1],
        }

    sizes = _PIVOT_SIZES[rule]
    if not unkilled and 0 not in sizes:
        return pinned(())
    if not sizes:
        return None  # witnesses only, and some rival has none
    # the vertices in certified classes from l, in increasing order
    eligible = sorted(chain.from_iterable(dd.at_distance(l, t) for t in certified))
    masks, jrow = dd.sphere_masks, dd.dist[j]
    agree = [masks[q][jrow[q]] & unkilled for q in eligible]
    for size in sizes:
        cost = 2 * size * len(rivals) + 1
        sets = comb(len(eligible), size)
        affordable = min((bud.limit - bud.used) // cost, sets)
        # the AND of each set's masks, for the sets the budget pays for
        meets = islice(
            map(reduce, repeat(and_), combinations(agree, size), repeat(unkilled)), affordable
        )
        try:
            hit = indexOf(meets, 0)
        except ValueError:  # none of them separates
            bud.spend(min(sets, affordable + 1) * cost)  # raises if one was unaffordable
            continue
        bud.spend((hit + 1) * cost)
        return pinned(next(islice(combinations(eligible, size), hit, None)))
    return None


def _covered_pairs(dd, generators):
    """(pairs, generators used): pairs(m) lists the pairs (0, x) for the
    least x of each orbit on S_m(0) of the generators fixing 0, when the
    generators are transitive on vertices, and otherwise every ordered
    pair of class m under the trivial group; both in increasing order.

    The pairs cover the class.  Take (a, b) at distance m.  Some g in the
    generated group maps a to 0, and g(b) lies in S_m(0), so g(b) is in
    the orbit of a listed x under the generators fixing 0, and (a, b) in
    the group's orbit of (0, x).  This holds even when the generators
    fixing 0 do not generate the whole stabilizer of 0."""
    orbits = sphere_orbits(generators, dd)
    if orbits is None:
        return dd.pairs_at_distance, ()
    return (lambda m: [(0, x) for x in orbits[m]]), generators


def certify(
    g: Graph | _Invariants,
    *,
    family: FamilySpec | str | None = None,
    mode: str = "auto",
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Certificate:
    """Certify absence of quantum symmetry for a connected graph.

    When a family spec is supplied, g must be its graph as built, and the
    certificate records the family's key: a recorded HAS_QSYM fact
    short-circuits the rule engine, and any other recorded verdict is read
    from the key when the certificate is shown.  g may be given as its
    _Invariants, whose distances, array and group are then not computed
    again.  Mode "auto" uses the automorphism group, mode "all-pairs" no
    group.  Both budgets must be non-negative integers; a bool is not one.
    """
    if mode not in ("auto", "all-pairs"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    for name, budget in (("search_budget", search_budget), ("node_budget", node_budget)):
        if not _is_int(budget) or budget < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {budget!r}")
    inv = g if isinstance(g, _Invariants) else _Invariants(g)
    g, dd = inv.g, inv.dd
    if not dd.connected:
        raise DisconnectedGraphError("certification requires a connected graph")

    key = family.key() if isinstance(family, FamilySpec) else family
    spec, fact = _bind(key, g) if key is not None else (None, UNKNOWN_FACT)
    label = spec.label() if spec is not None else f"graph on {g.n} vertices"

    header = _header(g, dd, label, spec.key() if spec is not None else None, to_graph6(g))
    if fact.verdict == HAS_QSYM:
        return _known(header)

    notes: list = []
    generators: tuple = ()
    if mode == "auto":
        try:
            generators = inv.group(node_budget).generators
        except SearchBudgetExceeded:
            notes.append("automorphism search budget exceeded; all-pairs coverage")
    covered, generators = _covered_pairs(dd, generators)

    certified: set = set()
    apps: list = []

    def pair_rule(rule_id, m, bud):
        found = []
        for j, l in covered(m):
            pinned = _pair_search(dd, m, j, l, certified, bud, rule_id)
            if pinned is None:
                return None
            found.append([j, l, *(pinned[k] for k in _PAIR_FIELDS[rule_id])])
        return Application(rule_id, m, {"pairs": found})

    def searches(m, candidates):
        bud = _Budget(search_budget)
        for rule_id in candidates:
            try:
                app = pair_rule(rule_id, m, bud)
            except _BudgetExceeded:
                notes.append(
                    f"class {m}: search budget of {search_budget} distance "
                    "lookups exhausted"
                )
                return None
            if app is not None:
                return app
        return None

    def structural(m, rules):
        for rule_id in rules:
            params = _STRUCTURAL[rule_id](inv, m, certified)
            if params is not None:
                return Application(rule_id, m, params)
        return None

    for m in range(1, dd.diameter + 1):
        rules, pair_rules = _CLASS_ONE_RULES if m == 1 else _FAR_CLASS_RULES
        app = structural(m, rules) or searches(m, pair_rules)
        if app is not None:
            apps.append(app)
            certified.add(m)

    return _certificate(header, certified, apps, generators, notes)


def _bind(key: str, g: Graph) -> tuple[FamilySpec, QsymFact]:
    """The spec and recorded fact of the family key names, once g is its
    graph as built (labelled equality); raises ValueError otherwise.  The
    closed-form order is compared first, so no work grows with a parameter
    of the family beyond the size of g."""
    if not has_order(key, g.n):
        raise ValueError(f"{key} does not have the graph's {g.n} vertices")
    spec = parse_family(key)
    if build(spec) != g:
        raise ValueError(
            f"graph is not the {spec.key()} graph as built; an isomorphic copy is not accepted"
        )
    return spec, verdict_for(spec)


def _header(g: Graph, dd, label: str, family: str | None, graph6: str) -> dict:
    """The certificate fields that describe the graph and name its family;
    graph6 is g's graph6 string."""
    return {
        "label": label,
        "n": g.n,
        "degree": g.regular_degree(),
        "diameter": dd.diameter,
        "family": family,
        "graph6": graph6,
    }


def _certificate(
    header: dict, certified, applications, generators=(), notes=(), verdict=None
) -> Certificate:
    """The one constructor of certificates: the applications certify the
    classes in certified, the other classes up to the diameter stay open,
    and the verdict, unless given, is NO_QSYM when none is open and
    INCONCLUSIVE otherwise.  The generators are kept only when a pair rule
    uses them."""
    open_classes = tuple(m for m in range(1, header["diameter"] + 1) if m not in certified)
    uses_pairs = any(a.rule in _PAIR_FIELDS for a in applications)
    return Certificate(
        verdict=verdict or (INCONCLUSIVE if open_classes else NO_QSYM),
        certified=tuple(sorted(certified)),
        open_classes=open_classes,
        applications=tuple(applications),
        generators=generators if uses_pairs else (),
        notes=tuple(notes),
        **header,
    )


def _known(header: dict) -> Certificate:
    """The HAS_QSYM certificate of the header family's recorded fact: it
    certifies no class and rests on the one knowledge-base application,
    whose family, reason and quantum group all come from the key."""
    return _certificate(header, (), (Application(RULE_KNOWN, None, {}),), verdict=HAS_QSYM)


# ------------------------------------------------------- complement route


def transfer_certificate(cert: Certificate, g: Graph, label: str | None = None) -> Certificate:
    """Turn a NO_QSYM certificate for complement(g) into one for g.

    Sound because a graph and its complement have the same automorphisms,
    classical and quantum alike.
    """
    comp = complement(g)
    if cert.verdict != NO_QSYM:
        raise ValueError("complement transfer requires a NO_QSYM certificate")
    if cert.graph6 != to_graph6(comp):
        raise ValueError("certificate does not describe the complement of this graph")
    dd = distances(g)
    app = Application(RULE_COMPLEMENT, None, {"complement": cert.to_dict()})
    header = _header(g, dd, label or f"complement of {cert.label}", None, to_graph6(g))
    return _certificate(header, range(1, dd.diameter + 1), (app,))


def certify_via_complement(g: Graph, *, label: str | None = None, **options) -> Certificate:
    comp = complement(g)
    if not is_connected(comp):
        raise DisconnectedGraphError("complement is disconnected")
    inner = certify(comp, **options)
    return transfer_certificate(inner, g, label=label)


# ------------------------------------------------------------------ audit


def audit(cert: Certificate, g: Graph) -> AuditResult:
    """Re-verify every claim of a certificate from the graph alone.

    The recorded graph6 string must be g's, and g connected.  A recorded
    family must bind to g by the same test certify applies, and when it
    records quantum symmetry the certificate must be the knowledge-base one
    certify writes.  Otherwise the recorded generators must be automorphisms
    transitive on the vertices, and the applications are replayed in order,
    on distances, girth and array computed here: a structural rule's
    function must return exactly the recorded params, and a pair rule's
    pivots and witnesses must pin every recorded pair, the pairs of class m
    being exactly the pairs (0, x) for the least x of each orbit on S_m(0)
    of the generators fixing 0; with no generators, every ordered pair of
    the class.

    The audit then rebuilds the certificate with the constructor certify
    uses, from g, the family's canonical key and the replayed classes, and
    compares every field as JSON, so a true never stands for a 1.  Only
    the label is taken as recorded, and the notes of a certificate other
    than the knowledge-base one.  Returns a falsy result naming the first
    failure.  A certificate built in Python skips from_dict's schema, and
    its fields are trusted to have the types from_dict enforces.
    """

    def fail(msg: str) -> AuditResult:
        return AuditResult(False, msg)

    graph6 = to_graph6(g)
    if cert.graph6 != graph6:
        return fail("graph6 string does not match the graph")
    inv = _Invariants(g)
    dd = inv.dd
    if not dd.connected:
        return fail("graph is disconnected")

    spec, fact = None, UNKNOWN_FACT
    if cert.family is not None:
        try:
            spec, fact = _bind(cert.family, g)
        except ValueError as exc:
            return fail(f"family {cert.family!r} does not bind to the graph: {exc}")
    header = _header(g, dd, cert.label, spec.key() if spec is not None else None, graph6)
    if fact.verdict == HAS_QSYM:
        known = _known(header)._json_object()
        return _compare(cert._json_object(), known, f"the {cert.family} knowledge-base certificate")

    gens = cert.generators
    for p in gens:
        if not (all(_is_vertex(x, g.n) for x in p) and is_automorphism(g, p)):
            return fail("recorded generator is not an automorphism")
    covered, used = _covered_pairs(dd, gens)
    if used != gens:
        return fail("recorded generators are not transitive on the vertices")

    certified: set = set()
    for index, app in enumerate(cert.applications, start=1):
        where = f"application {index} ({app.rule}, m={app.m})"
        if app.rule == RULE_COMPLEMENT:
            failure = _complement_failure(app, g)
            if failure is not None:
                return fail(f"{where}: {failure}")
            certified.update(range(1, dd.diameter + 1))
            continue
        m = app.m
        if not _is_int(m) or not 1 <= m <= dd.diameter:
            return fail(f"{where}: class out of range")
        if m in certified:
            return fail(f"{where}: class {m} certified twice")
        result = _audit_application(app, inv, certified, covered)
        if not result.ok:
            return fail(f"{where}: {result.failure}")
        certified.add(m)

    rebuilt = _certificate(header, certified, cert.applications, gens, cert.notes)._json_object()
    return _compare(cert._json_object(), rebuilt, "the certificate the replay rebuilds")


def _compare(given: dict, rebuilt: dict, source: str) -> AuditResult:
    """Whether the values of given are those of rebuilt as JSON, so a true
    never stands for a 1; a failure names the keys whose values differ.  A
    value that is the rebuilt one itself is not encoded: the applications
    of an all-pairs certificate run to 100 KB."""

    def text(value) -> str:
        return json.dumps(value, default=_encode, sort_keys=True)

    differ = sorted(
        key
        for key in given.keys() | rebuilt.keys()
        if key not in given
        or key not in rebuilt
        or (given[key] is not rebuilt[key] and text(given[key]) != text(rebuilt[key]))
    )
    if differ:
        return AuditResult(False, f"fields {differ} differ from {source}")
    return AuditResult(True)


def _complement_failure(app: Application, g: Graph) -> str | None:
    """Why the application is not exactly a whole-graph transfer of a NO_QSYM
    certificate of complement(g) that passes its audit, or None."""
    if app.m is not None or set(app.params) != {"complement"}:
        return "complement transfer records a class or params other than the complement"
    try:
        inner = Certificate.from_dict(app.params["complement"])
    except ValueError as exc:
        return f"embedded certificate malformed: {exc}"
    if inner.verdict != NO_QSYM:
        return "embedded complement certificate is not NO_QSYM"
    result = audit(inner, complement(g))
    return None if result.ok else f"embedded certificate fails audit: {result.failure}"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vertex(x, n: int) -> bool:
    return _is_int(x) and 0 <= x < n


def _pair_claims(app, n, covered):
    """The (j, l, payload) list a pair rule must prove, or an error string.

    The recorded pairs must be exactly the covered pairs of the class,
    which _covered_pairs lists.  Each payload maps the rule's _PAIR_FIELDS
    to the values recorded after its pair.
    """
    names = _PAIR_FIELDS[app.rule]
    entries = app.params.get("pairs")
    if set(app.params) != {"pairs"} or not isinstance(entries, list):
        return f"parameters {sorted(app.params)} are not ['pairs'] holding a list"
    claims = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2 + len(names)):
            return f"entry {entry!r} is not [j, l, {', '.join(names)}]"
        j, l, *values = entry
        if not (_is_vertex(j, n) and _is_vertex(l, n)):
            return f"pair {[j, l]!r} is not a pair of vertices"
        claims.append((j, l, dict(zip(names, values))))
    if [(j, l) for j, l, _ in claims] != covered:
        return f"recorded pairs are not the covered pairs of class {app.m}"
    return claims


def _replay_pair(dd, m, j, l, payload, certified) -> str | None:
    """Why the recorded pivots and witnesses fail to pin j as l's partner,
    or None when they do: every pivot lies in a certified class from l,
    and the rivals the pivots leave are exactly the witnessed ones."""
    n = len(dd.dist)
    pivots = payload.get("pivots", [])
    witnesses = payload.get("witnesses", [])
    if not (
        isinstance(pivots, (list, tuple))
        and len(pivots) <= 3
        and all(_is_vertex(q, n) for q in pivots)
    ):
        return "pivots are not a list of at most 3 vertices"
    if not (
        isinstance(witnesses, (list, tuple))
        and all(
            isinstance(w, (list, tuple)) and len(w) == 2 and all(_is_vertex(x, n) for x in w)
            for w in witnesses
        )
    ):
        return "witnesses are not a list of [rival, witness] vertex pairs"
    for q in pivots:
        t = dd.d(q, l)
        if t not in certified:
            return f"pivot {q} is at distance {t} from l, class {t} not certified"
    left = _pivots_leave(dd, m, j, l, pivots)
    witnessed = {p for p, _ in witnesses}
    if sum(1 << p for p in witnessed) != left:
        rivals = [p for p in range(n) if left >> p & 1]
        return f"pivots leave rivals {rivals} but witnesses cover {sorted(witnessed)}"
    for p, q in witnesses:
        if not _witness_valid(dd, m, j, l, p, q):
            return f"witness {q} does not kill rival {p}"
    return None


def _audit_application(app, inv: _Invariants, certified, covered) -> AuditResult:
    m, rule, params = app.m, app.rule, app.params
    check = _STRUCTURAL.get(rule)
    if check is not None:
        actual = check(inv, m, certified)
        if actual is None:
            return AuditResult(False, f"{rule} does not hold for class {m}")
        return _compare(params, actual, f"the recomputed params {actual}")

    if rule in _PAIR_FIELDS:
        claims = _pair_claims(app, len(inv.dd.dist), covered(m))
        if isinstance(claims, str):
            return AuditResult(False, claims)
        for j, l, payload in claims:
            failure = _replay_pair(inv.dd, m, j, l, payload, certified)
            if failure is not None:
                return AuditResult(False, f"pair ({j},{l}): {failure}")
        return AuditResult(True)

    if rule == RULE_KNOWN:
        return AuditResult(False, "knowledge-base facts are valid only in HAS_QSYM certificates")

    return AuditResult(False, f"unknown rule {rule!r}")
