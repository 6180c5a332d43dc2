"""Recorded quantum symmetry facts for recognized graph families.

A fact is a verdict (HAS_QSYM, NO_QSYM, UNKNOWN) together with the rule
or record that justifies it, and the name of the quantum automorphism
group when one is known.  Lookups key on family specs; graphs supplied
as raw edge data carry no spec and always come back UNKNOWN here, even
when they happen to be isomorphic to a recognized graph.

verdict_for is a lookup for readers of the literature; no certificate
verdict rests on it.  The engine proves HAS_QSYM from two disjoint
automorphisms of the graph itself (see certify).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expected import HAS_QSYM, NO_QSYM, UNKNOWN, load_tables
from .families import FamilySpec, _canonical_name, parse_family


@dataclass(frozen=True)
class QsymFact:
    verdict: str
    reason: str
    quantum_group: str | None = None


UNKNOWN_FACT = QsymFact(UNKNOWN, "no recorded result for this graph")


def _with_n(text: str, n: int) -> str:
    return text.replace("_n", f"_{n}")


def verdict_for(spec: FamilySpec | str | None) -> QsymFact:
    """Best recorded fact for a family instance.

    Per-graph records take precedence over family-wide rules; both agree
    wherever they overlap.
    """
    if spec is None:
        return UNKNOWN_FACT
    graphs = load_tables().graphs
    rec = None
    if isinstance(spec, str):
        text = spec.strip()
        if text.lower().startswith("named:"):
            # some recorded graphs have facts but no constructor, so the
            # record lookup must not insist on a buildable name
            rec = graphs.get(f"named:{_canonical_name(text.split(':', 1)[1])}")
        if rec is None:
            spec = parse_family(text)
    if rec is None:
        rec = next((graphs[k] for k in _lookup_keys(spec) if k in graphs), None)
    if rec is not None:
        qg = rec.quantum_group if rec.quantum_group != "?" else None
        return QsymFact(rec.verdict, f"recorded result for {rec.label}", qg)
    fact = _family_fact(spec)
    return fact if fact is not None else UNKNOWN_FACT


def _lookup_keys(spec: FamilySpec) -> list[str]:
    keys = [spec.key()]
    if spec.family == "hamming" and spec.params[1] == 2:
        keys.append(f"cube:{spec.params[0]}")
    if spec.family == "cube":
        keys.append(f"hamming:{spec.params[0]}:2")
    if spec.family == "johnson":
        n, k = spec.params
        keys.append(f"johnson:{n}:{min(k, n - k)}")
    return keys


def _family_fact(spec: FamilySpec) -> QsymFact | None:
    fam = spec.family
    params = spec.params
    families = load_tables().families

    if fam == "complete":
        n = params[0]
        if n >= 4:
            qg = _with_n(families["complete"].quantum_group, n)
            return QsymFact(HAS_QSYM, f"complete graph K_{n} with n >= 4", qg)
        return QsymFact(NO_QSYM, f"complete graph K_{n} with n <= 3", "Aut(G)")

    if fam == "cycle":
        n = params[0]
        if n == 3:
            return _family_fact(FamilySpec("complete", (3,)))
        if n == 4:
            return QsymFact(
                HAS_QSYM,
                "the 4-cycle is the complete bipartite graph K_{2,2}",
                _with_n(families["complete_bipartite"].quantum_group, 2),
            )
        return QsymFact(NO_QSYM, f"cycle C_{n} with n != 4", "Aut(G)")

    if fam == "complete_bipartite":
        n = params[0]
        if n >= 2:
            qg = _with_n(families["complete_bipartite"].quantum_group, n)
            return QsymFact(HAS_QSYM, f"complete bipartite graph K_{{{n},{n}}} with n >= 2", qg)
        return QsymFact(NO_QSYM, "K_{1,1} is a single edge", "Aut(G)")

    if fam == "crown":
        n = params[0]
        if n >= 4:
            qg = _with_n(families["crown"].quantum_group, n)
            return QsymFact(HAS_QSYM, f"crown graph on 2x{n} vertices with n >= 4", qg)
        return QsymFact(NO_QSYM, "the crown graph on 2x3 vertices is the 6-cycle", "Aut(G)")

    if fam == "cube":
        return _family_fact(FamilySpec("hamming", (params[0], 2)))

    if fam == "hamming":
        d, q = params
        if d == 1:
            return _family_fact(FamilySpec("complete", (q,)))
        if q == 1:
            return QsymFact(NO_QSYM, "H(d,1) is a single vertex", "Aut(G)")
        if q == 2:
            return QsymFact(HAS_QSYM, f"hypercube Q_{d} with d >= 2")
        if q == 3:
            return QsymFact(NO_QSYM, f"Hamming graph H({d},3)", "Aut(G)")
        return QsymFact(HAS_QSYM, f"Hamming graph H({d},{q}) with q >= 4")

    if fam == "johnson":
        n, k = params
        k = min(k, n - k)
        if k == 0:
            return QsymFact(NO_QSYM, "J(n,n) is a single vertex", "Aut(G)")
        if k == 1:
            return _family_fact(FamilySpec("complete", (n,)))
        if k == 2 and n >= 5:
            return QsymFact(NO_QSYM, f"Johnson graph J({n},2) with n >= 5", "Aut(G)")
        return None

    if fam == "kneser":
        n, k = params
        if k == 1:
            return _family_fact(FamilySpec("complete", (n,)))
        if n == 2 * k + 1:
            return QsymFact(NO_QSYM, f"K({n},{k}) is the odd graph O_{k + 1}", "Aut(G)")
        if k == 2 and n >= 5:
            return QsymFact(NO_QSYM, f"Kneser graph K({n},2) with n >= 5", "Aut(G)")
        return None

    if fam == "odd":
        k = params[0]
        return QsymFact(NO_QSYM, f"odd graph O_{k} with k >= 2", "Aut(G)")

    return None
