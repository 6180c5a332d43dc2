"""Curated reference data: known orders, automorphism group sizes and
quantum symmetry verdicts for the distance-regular graphs this package
ships, plus the parametric family rows used by the table reproduction.

The data lives in data/expected_tables.json.  Each row is read by the
record codec of io.py under its map key, so a row with a missing or extra
key, a key of its own, or a value of the wrong JSON type, is refused on
load.  Verdict strings are one of HAS_QSYM, NO_QSYM, UNKNOWN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .io import _check_version, _Record

HAS_QSYM = "HAS_QSYM"
NO_QSYM = "NO_QSYM"
UNKNOWN = "UNKNOWN"

VERDICTS = (HAS_QSYM, NO_QSYM, UNKNOWN)


@dataclass(frozen=True)
class GraphRow(_Record):
    """One fixed graph in the reference tables."""

    key: str
    label: str
    order: int
    aut_name: str | None
    aut_order: int | None
    aut_order_source: str | None
    quantum_group: str
    verdict: str
    array: str | None


@dataclass(frozen=True)
class FamilyRow(_Record):
    """One parametric family row."""

    key: str
    label: str
    parameter: str
    aut_name: str
    quantum_group: str


@dataclass(frozen=True)
class ExpectedTables:
    graphs: dict[str, GraphRow]
    families: dict[str, FamilyRow]
    cubic_keys: tuple[str, ...]
    small_keys: tuple[str, ...]

    def graph(self, key: str) -> GraphRow:
        return self.graphs[key]

    def cubic_rows(self) -> list[GraphRow]:
        return [self.graphs[k] for k in self.cubic_keys]

    def small_rows(self) -> list[GraphRow]:
        return [self.graphs[k] for k in self.small_keys]


def _keyed_rows(kind, raw: dict) -> dict:
    """kind's records from a map of key to row; a row does not repeat its key."""
    for key, row in raw.items():
        if not isinstance(row, dict) or "key" in row:
            raise ValueError(f"{kind.__name__} {key!r} is not an object without a key field")
    return {key: kind.from_dict({"key": key, **row}) for key, row in raw.items()}


@lru_cache(maxsize=1)
def load_tables() -> ExpectedTables:
    text = resources.files("drgcert").joinpath("data/expected_tables.json").read_text()
    raw = json.loads(text)
    _check_version(raw, 1, "unsupported expected_tables.json format")
    graphs = _keyed_rows(GraphRow, raw["graphs"])
    families = _keyed_rows(FamilyRow, raw["families"])
    for row in graphs.values():
        if row.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {row.verdict!r} for {row.key}")
    for key in raw["cubic_rows"] + raw["small_rows"]:
        if key not in graphs:
            raise ValueError(f"table row {key} has no graph record")
    return ExpectedTables(
        graphs=graphs,
        families=families,
        cubic_keys=tuple(raw["cubic_rows"]),
        small_keys=tuple(raw["small_rows"]),
    )
