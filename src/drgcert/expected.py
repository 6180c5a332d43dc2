"""Curated reference data: known orders, automorphism group sizes and
quantum symmetry verdicts for the distance-regular graphs this package
ships, plus the parametric family rows used by the table reproduction.

The data lives in data/expected_tables.json.  Verdict strings are one of
HAS_QSYM, NO_QSYM, UNKNOWN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

HAS_QSYM = "HAS_QSYM"
NO_QSYM = "NO_QSYM"
UNKNOWN = "UNKNOWN"

VERDICTS = (HAS_QSYM, NO_QSYM, UNKNOWN)


@dataclass(frozen=True)
class GraphRow:
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
class FamilyRow:
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


def _graph_row(key: str, raw: dict) -> GraphRow:
    verdict = raw["verdict"]
    if verdict not in VERDICTS:
        raise ValueError(f"bad verdict {verdict!r} for {key}")
    return GraphRow(
        key=key,
        label=raw["label"],
        order=raw["order"],
        aut_name=raw["aut_name"],
        aut_order=raw["aut_order"],
        aut_order_source=raw["aut_order_source"],
        quantum_group=raw["quantum_group"],
        verdict=verdict,
        array=raw["array"],
    )


@lru_cache(maxsize=1)
def load_tables() -> ExpectedTables:
    text = resources.files("drgcert").joinpath("data/expected_tables.json").read_text()
    raw = json.loads(text)
    if raw.get("format_version") != 1:
        raise ValueError("unsupported expected_tables.json format")
    graphs = {k: _graph_row(k, v) for k, v in raw["graphs"].items()}
    families = {
        k: FamilyRow(
            key=k,
            label=v["label"],
            parameter=v["parameter"],
            aut_name=v["aut_name"],
            quantum_group=v["quantum_group"],
        )
        for k, v in raw["families"].items()
    }
    for key in raw["cubic_rows"] + raw["small_rows"]:
        if key not in graphs:
            raise ValueError(f"table row {key} has no graph record")
    return ExpectedTables(
        graphs=graphs,
        families=families,
        cubic_keys=tuple(raw["cubic_rows"]),
        small_keys=tuple(raw["small_rows"]),
    )
