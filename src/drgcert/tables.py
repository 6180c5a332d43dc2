"""Reproduction of the reference tables as a regression surface.

Two tables ship with the package: the cubic distance-transitive graphs
(twelve rows) and the small distance-regular graphs up to 20 vertices.
Reproducing a row means rebuilding the graph from its family spec and
recomputing everything the row asserts: order, intersection array,
automorphism group order, and the quantum symmetry verdict.  Any
disagreement between a computed value and the stored one is a hard
failure; verdicts get a softer treatment because the rule engine is
allowed to be honestly inconclusive where the recorded literature result
needs tools beyond this package.  A graph in both tables is reproduced
once and its report listed in both.

The parametric family rows are validated through their closed-form
intersection arrays.  One table, _FAMILY_FORMULAS, gives each family's
build spec, its three checked values and its formula; the formula is
evaluated at each value and compared against the array computed from the
built graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .certify import INCONCLUSIVE, _Invariants, _is_int, audit, certify
from .drg import IntersectionArray, intersection_array
from .expected import HAS_QSYM, NO_QSYM, UNKNOWN, FamilyRow, GraphRow, load_tables
from .families import build, label_for
from .io import _check_version, _Record

FORMAT_VERSION = 1


# --------------------------------------------------- closed-form arrays


# each family's build spec, three checked values inside the formula's
# validity range, and the formula giving (b, c) at a value
_FAMILY_FORMULAS = {
    "complete": ("complete:{0}", (4, 5, 7), lambda n: ((n - 1,), (1,))),
    "cycle": (
        "cycle:{0}",
        (5, 6, 9),
        # c ends in 2 on an even cycle
        lambda n: ((2,) + (1,) * (n // 2 - 1), (1,) * (n // 2 - 1 + n % 2) + (2,) * (1 - n % 2)),
    ),
    "complete_bipartite": ("complete_bipartite:{0}", (2, 3, 5), lambda n: ((n, n - 1), (1, n))),
    "crown": ("crown:{0}", (3, 4, 6), lambda n: ((n - 1, n - 2, 1), (1, n - 2, n - 1))),
    "johnson2": ("johnson:{0}:2", (5, 6, 7), lambda n: ((2 * n - 4, n - 3), (1, 4))),
    "kneser2": (
        "kneser:{0}:2",
        (5, 6, 7),
        lambda n: (((n - 2) * (n - 3) // 2, 2 * n - 8), (1, (n - 3) * (n - 4) // 2)),
    ),
    "odd": (
        "odd:{0}",
        (3, 4, 5),
        lambda k: (
            (k,) + tuple(k - (i + 1) // 2 for i in range(1, k - 1)),
            tuple((i + 1) // 2 for i in range(1, k)),
        ),
    ),
    "hamming3": (
        "hamming:{0}:3",
        (1, 2, 3),
        lambda n: (tuple(2 * (n - i) for i in range(n)), tuple(range(1, n + 1))),
    ),
}


def family_array(family: str, value: int) -> IntersectionArray:
    """Closed-form intersection array of a parametric table row.  A value
    below the family's range gives numbers IntersectionArray refuses, so
    it is a ValueError there."""
    if family not in _FAMILY_FORMULAS:
        raise ValueError(f"no closed-form array for family {family!r}")
    return IntersectionArray(*_FAMILY_FORMULAS[family][2](value))


# -------------------------------------------------------------- reports


@dataclass(frozen=True)
class RowReport(_Record):
    key: str
    label: str
    order: int
    order_computed: int
    array: str | None
    array_computed: str | None
    aut_name: str | None
    aut_order: int | None
    aut_order_source: str | None
    aut_order_computed: int
    quantum_group: str
    verdict: str
    engine_verdict: str
    verdict_status: str
    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class FamilyReport(_Record):
    key: str
    label: str
    checked: tuple
    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class TablesReport(_Record):
    cubic: tuple = field(metadata={"load": lambda rs: tuple(map(RowReport.from_dict, rs))})
    small: tuple = field(metadata={"load": lambda rs: tuple(map(RowReport.from_dict, rs))})
    families: tuple = field(metadata={"load": lambda fs: tuple(map(FamilyReport.from_dict, fs))})

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.cubic + self.small + self.families)

    def _json_object(self) -> dict:
        return {"format_version": FORMAT_VERSION, "ok": self.ok, **super()._json_object()}

    def to_json(self) -> str:
        return super().to_json(indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "TablesReport":
        _check_version(data, FORMAT_VERSION, "unsupported report format {!r}")
        header = ("format_version", "ok")  # ok is not read back: the rows decide it
        return super().from_dict({k: v for k, v in data.items() if k not in header})

    def to_text(self) -> str:
        out = []
        if self.cubic:
            out.append(_render_rows("cubic distance-transitive graphs", self.cubic))
        if self.small:
            out.append(_render_rows("distance-regular graphs up to 20 vertices", self.small))
        if self.families:
            lines = ["parametric families (closed-form arrays)"]
            width = max(len(f.label) for f in self.families)
            for f in self.families:
                mark = "ok" if f.ok else "FAIL"
                checked = ", ".join(str(v) for v in f.checked)
                lines.append(f"  {f.label:<{width}}  checked at {checked}  {mark}")
                for p in f.problems:
                    lines.append(f"      problem: {p}")
            out.append("\n".join(lines))
        status = "all rows reproduced" if self.ok else "MISMATCHES FOUND"
        out.append(status)
        return "\n\n".join(out) + "\n"


_STATUS_TEXT = {
    "certified": "certified",
    "recorded": "recorded, engine inconclusive",
    "open": "open question",
    "mismatch": "MISMATCH",
}


def _render_rows(title: str, rows) -> str:
    headers = ("graph", "order", "aut", "|aut|", "array", "verdict", "status")
    table = []
    for r in rows:
        aut_order = str(r.aut_order_computed if r.aut_order is None else r.aut_order)
        table.append(
            (
                r.label,
                str(r.order),
                r.aut_name or "",
                aut_order,
                r.array or "",
                r.verdict,
                _STATUS_TEXT.get(r.verdict_status, r.verdict_status),
            )
        )
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    lines = [title]
    lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for row, r in zip(table, rows):
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for p in r.problems:
            lines.append(f"      problem: {p}")
    return "\n".join(lines)


# --------------------------------------------------------- reproduction

# status of a row by (engine verdict, recorded verdict); any other pair is a
# mismatch.  A proof on an UNKNOWN row settles what the table left open
_VERDICT_STATUS = {
    (HAS_QSYM, HAS_QSYM): "certified",
    (HAS_QSYM, UNKNOWN): "certified",
    (NO_QSYM, NO_QSYM): "certified",
    (NO_QSYM, UNKNOWN): "certified",
    (INCONCLUSIVE, NO_QSYM): "recorded",
    (INCONCLUSIVE, UNKNOWN): "open",
}


def reproduce_row(row: GraphRow) -> RowReport:
    """Rebuild a table row's graph and recheck its order, array, |Aut| and
    verdict; certify and audit the graph on the row's one _Invariants."""
    problems = []
    g = build(row.key)

    order_computed = g.n
    if order_computed != row.order:
        problems.append(f"order: computed {order_computed}, table says {row.order}")

    inv = _Invariants(g)
    # certify first: its inv.cover call roots the array at one vertex per orbit
    cert = certify(inv, label=label_for(row.key))
    arr = inv.array()
    array_computed = str(arr) if arr else None
    if array_computed != row.array:
        problems.append(f"array: computed {array_computed}, table says {row.array}")

    aut_order_computed = inv.group().order
    if row.aut_order is not None and aut_order_computed != row.aut_order:
        problems.append(f"aut order: computed {aut_order_computed}, table says {row.aut_order}")

    engine_verdict = cert.verdict
    checked = audit(cert, g)
    if not checked:
        problems.append(f"certificate failed audit: {checked.failure}")
    status = _VERDICT_STATUS.get((engine_verdict, row.verdict), "mismatch")
    if status == "mismatch":
        problems.append(f"verdict: engine says {engine_verdict}, table says {row.verdict}")

    return RowReport(
        **asdict(row),
        order_computed=order_computed,
        array_computed=array_computed,
        aut_order_computed=aut_order_computed,
        engine_verdict=engine_verdict,
        verdict_status=status,
        problems=tuple(problems),
    )


def check_family(row: FamilyRow) -> FamilyReport:
    problems = []
    spec, values, _ = _FAMILY_FORMULAS[row.key]
    for value in values:
        expected = family_array(row.key, value)
        g = build(spec.format(value))
        arr = intersection_array(g)
        if not arr:
            problems.append(f"{row.parameter}={value}: graph is not distance-regular ({arr.reason})")
        elif str(arr) != str(expected):
            problems.append(
                f"{row.parameter}={value}: computed {arr}, formula gives {expected}"
            )
    return FamilyReport(
        key=row.key,
        label=row.label,
        checked=tuple(values),
        problems=tuple(problems),
    )


def reproduce_tables(which: int | None = None) -> TablesReport:
    """Rebuild and recheck the reference tables.

    which: 1 for the cubic table, 2 for the small-graph table with the
    family formula checks, None for both.
    """
    if not (which is None or _is_int(which) and which in (1, 2)):
        raise ValueError(f"which must be 1, 2 or None, not {which!r}")
    tables = load_tables()
    cubic = tables.cubic_keys if which in (None, 1) else ()
    small = tables.small_keys if which in (None, 2) else ()
    # a graph in both tables is reproduced once and listed in both
    reports = {k: reproduce_row(tables.graph(k)) for k in dict.fromkeys(cubic + small)}
    families = sorted(tables.families) if which in (None, 2) else ()
    return TablesReport(
        cubic=tuple(reports[k] for k in cubic),
        small=tuple(reports[k] for k in small),
        families=tuple(check_family(tables.families[k]) for k in families),
    )
