"""Acceptance suite: one test per release criterion.

Each criterion is a single test function so a verbose run prints one
pass/fail line per criterion.  Expected values are frozen here; the
oracles in oracles.py recompute the quantitative ones from scratch.
"""

import inspect
import math
import time
from random import Random

from oracles import (
    brute_automorphism_count,
    enumerate_girth,
    floyd_warshall,
    random_connected_graph,
    recount_distance_regular,
)

import drgcert
from drgcert.autgroup import automorphism_group
from drgcert.certify import INCONCLUSIVE, Certificate, audit, certify
from drgcert.drg import is_distance_regular
from drgcert.expected import HAS_QSYM, NO_QSYM, UNKNOWN, load_tables
from drgcert.families import build
from drgcert.graph import girth
from drgcert.io import to_graph6
from drgcert.tables import reproduce_tables


# --------------------------------------------------- 1. table reproduction

TABLE_TIME_LIMIT = 120.0  # seconds, whole table pass


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    report = reproduce_tables()
    elapsed = time.monotonic() - t0

    assert report.ok
    assert len(report.cubic) == 12
    assert len(report.small) == 19
    for row in report.cubic + report.small:
        assert row.order_computed == row.order, row.key
        assert row.array_computed == row.array, row.key
        assert not row.problems, (row.key, row.problems)
    assert elapsed < TABLE_TIME_LIMIT
    print(f"criterion 1: 12 + 19 rows, order and array exact, {elapsed:.1f}s")


# --------------------------------------------------- 2. automorphism orders

AUT_ORDERS = {
    "named:pappus": 216,
    "named:foster": 4320,
    "named:petersen": 120,
    "named:heawood": 336,
    "named:desargues": 240,
    "named:dodecahedron": 120,
    "named:coxeter": 336,
    "named:tutte_8_cage": 1440,
    "named:biggs_smith": 2448,
    "named:icosahedron": 120,
    "named:shrikhande": 192,
}

AUT_TIME_LIMIT = 60.0  # per graph
HS_TIME_LIMIT = 600.0


def unitary_psu3_order(q: int) -> int:
    # |GU(3,q)| = q^3 (q+1)(q^2-1)(q^3+1), then quotient by the centre
    # of size q+1 and by gcd(3, q+1) scalar cosets
    gu = q**3 * (q + 1) * (q**2 - 1) * (q**3 + 1)
    su = gu // (q + 1)
    return su // math.gcd(3, q + 1)


def test_criterion_2_automorphism_orders():
    for key, expected in AUT_ORDERS.items():
        t0 = time.monotonic()
        order = automorphism_group(build(key)).order
        elapsed = time.monotonic() - t0
        assert order == expected, (key, order)
        assert elapsed < AUT_TIME_LIMIT, (key, elapsed)

    t0 = time.monotonic()
    hs_order = automorphism_group(build("named:hoffman_singleton")).order
    elapsed = time.monotonic() - t0
    assert elapsed < HS_TIME_LIMIT
    # index-2 extension of the simple unitary group on GF(25)^3
    psu = unitary_psu3_order(5)
    assert psu == 126000
    assert hs_order == 2 * psu == 252000
    print(f"criterion 2: {len(AUT_ORDERS) + 1} orders exact, "
          f"Hoffman-Singleton {hs_order} = 2 * {psu} in {elapsed:.1f}s")


# --------------------------------------------------- 3. certification suite

G5 = ("girth-at-least-5", 1, None)
CD2 = ("cubic-distance-two", 2, None)

CUBIC_CHAINS = {
    "named:petersen": [G5, CD2],
    "named:heawood": [G5, CD2, ("array-step", 3, "a")],
    "named:pappus": [G5, CD2, ("array-step", 3, "a"), ("array-step", 4, "a")],
    "named:desargues": [G5, CD2, ("array-step", 3, "a"), ("array-step", 4, "a"),
                        ("array-step", 5, "a")],
    "named:dodecahedron": [G5, CD2, ("cubic-step", 3, "i"), ("array-step", 4, "a"),
                           ("array-step", 5, "a")],
    "named:coxeter": [G5, CD2, ("cubic-step", 3, "ii"), ("array-step", 4, "a")],
}

OTHER_NO_QSYM = [
    "named:icosahedron",
    "named:shrikhande",
    "hamming:2:3",
    "hamming:3:3",
    "paley:9",
    "paley:13",
    "paley:17",
]


def full_chain(cert):
    return [(a.rule, a.m, a.params.get("variant")) for a in cert.applications]


def test_criterion_3_certification_suite():
    for key, chain in CUBIC_CHAINS.items():
        g = build(key)
        cert = certify(g)
        assert cert.verdict == NO_QSYM, (key, cert.verdict, cert.open_classes)
        assert full_chain(cert) == chain, key
        result = audit(cert, g)
        assert result, (key, result.failure)

    for key in OTHER_NO_QSYM:
        g = build(key)
        cert = certify(g)
        assert cert.verdict == NO_QSYM, (key, cert.verdict, cert.open_classes)
        result = audit(cert, g)
        assert result, (key, result.failure)
        if key in ("paley:13", "paley:17"):
            # class 1 needs a witness search, class 2 the pivot search;
            # failure of either is a build failure, not an open question
            assert cert.certified == (1, 2), key

    print(f"criterion 3: {len(CUBIC_CHAINS) + len(OTHER_NO_QSYM)} graphs "
          "certified NO_QSYM, chains match, audits pass")


# --------------------------------------------------- 4. known quantum symmetry

HAS_KEYS = [
    "hamming:2:4",
    "hamming:3:4",
    "hamming:2:2",
    "hamming:3:2",
    "hamming:4:2",
    "complete:4",
    "complete_bipartite:3",
    "cube:3",
]


def test_criterion_4_has_qsym_detection():
    for key in HAS_KEYS:
        g = build(key)
        cert = certify(g)
        assert cert.verdict == HAS_QSYM, (key, cert.verdict)
        assert cert.applications[-1].rule == "disjoint-automorphisms", key
        assert cert.open_classes, key
        result = audit(cert, g)
        assert result, (key, result.failure)
    print(f"criterion 4: {len(HAS_KEYS)} graphs report HAS_QSYM from two disjoint automorphisms")


# --------------------------------------------------- 5. soundness red team


def tampered(cert, mutate):
    data = cert.to_dict()
    mutate(data)
    return Certificate.from_dict(data)


def test_criterion_5_soundness_red_team():
    rejected = 0

    # wrong pivot: drop one pivot from a recorded pivot set
    g = build("hamming:2:3")
    cert = certify(g)
    app = cert.to_dict()["applications"][1]
    assert app["rule"] == "pivot-intersection"

    def cut_pivot(data):
        del data["applications"][1]["params"]["pairs"][0][2][1:]

    assert not audit(tampered(cert, cut_pivot), g)
    rejected += 1

    # wrong intersection-array variant
    g = build("named:heawood")
    cert = certify(g)

    def flip_variant(data):
        assert data["applications"][2]["rule"] == "array-step"
        data["applications"][2]["params"]["variant"] = "b"

    result = audit(tampered(cert, flip_variant), g)
    assert not result and "variant" in result.failure
    rejected += 1

    # missing class: final class claimed certified with no application
    g = build("named:desargues")
    cert = certify(g)

    def drop_class(data):
        data["applications"] = data["applications"][:-1]

    assert not audit(tampered(cert, drop_class), g)
    rejected += 1

    # forged witness: a vertex violating the separation requirement
    g = build("paley:17")
    cert = certify(g)
    params = cert.to_dict()["applications"][0]["params"]
    assert cert.applications[0].rule == "distance-witness"
    j, _l, witnesses = params["pairs"][0]
    p = witnesses[0][0]
    dist = floyd_warshall(g)
    forged = next(q for q in range(g.n) if dist[j][q] == dist[q][p])

    def forge_witness(data):
        data["applications"][0]["params"]["pairs"][0][2][0][1] = forged

    result = audit(tampered(cert, forge_witness), g)
    assert not result and "witness" in result.failure
    rejected += 1

    # claimed NO_QSYM on the 4x4 rook graph: transplant the certificate of
    # its srg twin; replayed rules must fail on the target graph
    rook = build("hamming:2:4")
    donor = certify(build("named:shrikhande"))

    def transplant(data):
        data["graph6"] = to_graph6(rook)
        data["label"] = "counterfeit"

    assert not audit(tampered(donor, transplant), rook)
    rejected += 1

    assert rejected == 5
    print("criterion 5: 5 tampered certificates rejected")


# --------------------------------------------------- 6. honest inconclusiveness


def test_criterion_6_honest_inconclusiveness():
    for key in ("named:tutte_8_cage", "named:foster", "named:biggs_smith"):
        g = build(key)
        cert = certify(g)
        assert cert.verdict != HAS_QSYM, key
        assert {1, 2} <= set(cert.certified), (key, cert.certified)
        if cert.verdict == NO_QSYM:
            result = audit(cert, g)
            assert result, (key, result.failure)

    cert = certify(build("johnson:6:3"))
    assert load_tables().graph("johnson:6:3").verdict == UNKNOWN
    assert cert.certified or cert.open_classes  # own class results present
    assert cert.verdict == INCONCLUSIVE
    print("criterion 6: three hard cubic graphs stay honest, "
          f"J(6,3), an open question, is INCONCLUSIVE with classes {cert.certified} certified")


# --------------------------------------------------- 7. oracle equivalence

ORACLE_SEED = 990007
ORACLE_SAMPLES = 200


def test_criterion_7_oracle_equivalence():
    rng = Random(ORACLE_SEED)
    aut_checked = 0
    for _ in range(ORACLE_SAMPLES):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        assert bool(is_distance_regular(g)) == recount_distance_regular(g)
        assert girth(g) == enumerate_girth(g)
        if n <= 8:
            assert automorphism_group(g).order == brute_automorphism_count(g)
            aut_checked += 1
    assert aut_checked >= 50  # the seed must exercise the brute-force range
    print(f"criterion 7: {ORACLE_SAMPLES} random graphs agree with the oracles, "
          f"{aut_checked} automorphism counts brute-checked")


# --------------------------------------------------- public names


def test_public_names_resolve():
    names = drgcert.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(drgcert, name)] == []
    # every public name the package imports is listed, and nothing else
    imported = {
        name for name, value in vars(drgcert).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(names)
    namespace = {}
    exec("from drgcert import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
