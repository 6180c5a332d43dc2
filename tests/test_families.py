"""Family constructors: orders, degrees, and frozen graph identities."""

import hashlib
from itertools import combinations
from math import comb

import pytest

from drgcert.families import (
    FamilySpec,
    build,
    label_for,
    list_named,
    parse_family,
)
from drgcert.drg import intersection_array
from drgcert.graph import Graph, complement, distances, girth, line_graph
from drgcert.io import to_graph6
from oracles import are_isomorphic


def test_parse_roundtrip():
    for key in ["complete:5", "hamming:2:4", "johnson:6:3", "named:petersen"]:
        spec = parse_family(key)
        assert spec.key() == key
        assert parse_family(spec.key()) == spec


def test_parse_rejects():
    for bad in ["", "complete", "complete:2:3", "complete:x", "mystery:3",
                "cycle:2", "johnson:3:3", "kneser:5:3", "paley:7", "paley:8",
                "named:zzz", "odd:1"]:
        with pytest.raises(ValueError):
            parse_family(bad)


def test_named_name_normalization():
    assert parse_family("named:Biggs-Smith").name == "biggs_smith"
    assert parse_family("named:tutte 8 cage").name == "tutte_8_cage"


def test_complete_and_bipartite():
    k5 = build("complete:5")
    assert k5.n == 5 and k5.num_edges == 10
    k33 = build("complete_bipartite:3")
    assert k33.n == 6 and k33.regular_degree() == 3 and girth(k33) == 4


def test_cycle_and_crown():
    c7 = build("cycle:7")
    assert c7.n == 7 and c7.regular_degree() == 2 and girth(c7) == 7
    cr5 = build("crown:5")
    assert cr5.n == 10 and cr5.regular_degree() == 4 and girth(cr5) == 4


def test_hamming_parameters():
    for d, q in [(1, 4), (2, 3), (3, 3), (2, 4), (4, 2)]:
        g = build(f"hamming:{d}:{q}")
        assert g.n == q**d
        assert g.regular_degree() == d * (q - 1)


def test_johnson_parameters():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        g = build(f"johnson:{n}:{k}")
        assert g.n == comb(n, k)
        assert g.regular_degree() == k * (n - k)


def test_kneser_parameters():
    for n, k in [(5, 2), (6, 2), (7, 3)]:
        g = build(f"kneser:{n}:{k}")
        assert g.n == comb(n, k)
        assert g.regular_degree() == comb(n - k, k)


@pytest.mark.parametrize(
    "key, ground, k, size",
    [(f"johnson:{n}:{k}", n, k, k - 1) for n, k in [(4, 2), (7, 2), (10, 2), (7, 3), (9, 4)]]
    + [(f"kneser:{n}:{k}", n, k, 0) for n, k in [(5, 2), (10, 2), (8, 3), (9, 3)]]
    + [(f"odd:{k}", 2 * k - 1, k - 1, 0) for k in (2, 3, 4, 5, 6)],
)
def test_meet_graphs_match_the_pairwise_definition(key, ground, k, size):
    # the same labelled graph as testing every pair of k-subsets, in
    # lexicographic order, for an intersection of the given size
    sets = [set(c) for c in combinations(range(ground), k)]
    edges = [(i, j) for i, j in combinations(range(len(sets)), 2) if len(sets[i] & sets[j]) == size]
    assert build(key) == Graph(len(sets), edges)


def test_paley_parameters():
    for q in [5, 9, 13, 17, 25]:
        g = build(f"paley:{q}")
        assert g.n == q
        assert g.regular_degree() == (q - 1) // 2


def test_named_inventory():
    names = list_named()
    assert len(names) == 15
    for name in names:
        g = build(f"named:{name}")
        assert g.n >= 10


def test_frozen_identities():
    # crown over 3+3 vertices is the 6-cycle
    assert are_isomorphic(build("crown:3"), build("cycle:6"))
    # crown over 4+4 vertices is the 3-cube
    assert are_isomorphic(build("crown:4"), build("cube:3"))
    # the cube family is binary Hamming
    assert are_isomorphic(build("cube:4"), build("hamming:4:2"))
    # odd graph O_3 is the Petersen graph is Kneser K(5,2)
    assert are_isomorphic(build("odd:3"), build("named:petersen"))
    assert are_isomorphic(build("kneser:5:2"), build("named:petersen"))
    # Paley graph on 9 vertices is the 3x3 rook's graph
    assert are_isomorphic(build("paley:9"), build("hamming:2:3"))
    # J(5,2) is the Petersen complement
    assert are_isomorphic(build("johnson:5:2"), complement(build("named:petersen")))
    # the named line graph of Petersen really is one
    assert are_isomorphic(build("named:line_petersen"), line_graph(build("named:petersen")))
    # octahedron two ways
    assert are_isomorphic(build("johnson:4:2"), line_graph(build("complete:4")))


def test_named_graphs_are_pinned():
    # sha256 of each named graph's labelled graph6, recorded when the four
    # graphs once read from edge lists got inline constructors
    text = "".join(f"{n} {to_graph6(build('named:' + n))}\n" for n in list_named())
    digest = "cec13ef3d305ff93b8badcc65c894100b316b0c887604c7b41a8c143ca215c14"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parametric_graphs_are_pinned():
    # sha256 of a set of parametric specs with their labels and labelled
    # graph6, recorded before the families moved to one entry type
    keys = ["complete:7", "cycle:9", "complete_bipartite:5", "crown:6", "cube:4", "hamming:3:3",
            "hamming:2:5", "johnson:7:3", "kneser:7:2", "odd:4", "paley:13", "paley:25"]
    text = "".join(f"{key} {label_for(key)} {to_graph6(build(key))}\n" for key in keys)
    digest = "9c33b828f228e649fbf54614939d9d268a883944720dc16c6822d2f77a1f54d8"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_named_graph_invariants():
    checks = {
        "petersen": (10, 3, 5, 2, "{3,2;1,1}"),
        "heawood": (14, 3, 6, 3, "{3,2,2;1,1,3}"),
        "pappus": (18, 3, 6, 4, "{3,2,2,1;1,1,2,3}"),
        "desargues": (20, 3, 6, 5, "{3,2,2,1,1;1,1,2,2,3}"),
        "dodecahedron": (20, 3, 5, 5, "{3,2,1,1,1;1,1,1,2,3}"),
        "coxeter": (28, 3, 7, 4, "{3,2,2,1;1,1,1,2}"),
        "tutte_8_cage": (30, 3, 8, 4, "{3,2,2,2;1,1,1,3}"),
        "foster": (90, 3, 10, 8, "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}"),
        "biggs_smith": (102, 3, 9, 7, "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}"),
        "icosahedron": (12, 5, 3, 3, "{5,2,1;1,2,5}"),
        "shrikhande": (16, 6, 3, 2, "{6,3;1,2}"),
        "clebsch": (16, 5, 4, 2, "{5,4;1,2}"),
        "hoffman_singleton": (50, 7, 5, 2, "{7,6;1,1}"),
        "co_heawood": (14, 4, 4, 3, "{4,3,2;1,2,4}"),
        "line_petersen": (15, 4, 3, 3, "{4,2,1;1,1,4}"),
    }
    for name, (n, k, gir, diam, array) in checks.items():
        g = build(f"named:{name}")
        assert g.n == n, name
        assert g.regular_degree() == k, name
        assert girth(g) == gir, name
        assert distances(g).diameter == diam, name
        assert str(intersection_array(g)) == array, name


def test_labels():
    assert label_for("named:petersen") == "Petersen graph"
    assert "H(2,4)" in label_for("hamming:2:4")
    spec = FamilySpec("complete", (4,))
    assert label_for(spec) == label_for("complete:4")


@pytest.mark.parametrize(
    "key",
    ["complete:1", "complete:7", "cycle:5", "complete_bipartite:4", "crown:5", "cube:1",
     "cube:4", "hamming:3:1", "hamming:2:5", "hamming:3:3", "johnson:6:3", "johnson:7:1",
     "kneser:7:3", "kneser:6:2", "odd:2", "odd:4", "paley:13", "paley:25"]
    + [f"named:{name}" for name in list_named()],
)
def test_vertex_count_matches_build(key):
    assert build(key).n == _closed_form_order(key)


# the orders of the named graphs, from their definitions
NAMED_ORDERS = {
    "petersen": 10, "heawood": 14, "pappus": 18, "desargues": 20, "dodecahedron": 20,
    "coxeter": 28, "tutte_8_cage": 30, "foster": 90, "biggs_smith": 102, "icosahedron": 12,
    "co_heawood": 14, "line_petersen": 15, "shrikhande": 16, "clebsch": 16,
    "hoffman_singleton": 50,
}


def _closed_form_order(key):
    spec = parse_family(key)
    f, p = spec.family, spec.params
    if f == "named":
        return NAMED_ORDERS[spec.name]
    if f in ("complete", "cycle", "paley"):
        return p[0]
    if f in ("complete_bipartite", "crown"):
        return 2 * p[0]
    if f == "cube":
        return 2 ** p[0]
    if f == "hamming":
        return p[1] ** p[0]
    if f == "odd":
        return comb(2 * p[0] - 1, p[0] - 1)
    return comb(*p)  # johnson, kneser


def test_paley_rejects_nonpositive_orders():
    for bad in ("paley:0", "paley:-5", "paley:1"):
        with pytest.raises(ValueError):
            parse_family(bad)


KNOWN_NAMES = (
    "biggs_smith, clebsch, co_heawood, coxeter, desargues, dodecahedron, foster, heawood, "
    "hoffman_singleton, icosahedron, line_petersen, pappus, petersen, shrikhande, tutte_8_cage"
)

# the exact ValueError texts parse_family gives, which the CLI reports as
# usage errors
PARSE_ERRORS = {
    "": "unknown family ''",
    "complete": "family complete takes 1 parameter(s), got 'complete'",
    "complete:2:3": "family complete takes 1 parameter(s), got 'complete:2:3'",
    "complete:x": "non-integer parameter in 'complete:x'",
    "mystery:3": "unknown family 'mystery'",
    "cycle:2": "cycle:n needs n >= 3",
    "johnson:3:3": "johnson:n:k needs 1 <= k < n",
    "kneser:5:3": "kneser:n:k needs k >= 1 and n >= 2k",
    "paley:7": "paley:q needs q = 1 mod 4, got 7",
    "paley:8": "paley:q needs q an odd prime or its square, got 8",
    "named:zzz": f"unknown graph name 'zzz' (known: {KNOWN_NAMES})",
    "odd:1": "odd:k needs k >= 2",
    "paley:0": "paley:q needs q an odd prime or its square, got 0",
    "paley:-5": "paley:q needs q an odd prime or its square, got -5",
    "paley:1": "paley:q needs q an odd prime or its square, got 1",
    "crown:2": "crown:n needs n >= 3",
    "cube:0": "cube:d needs d >= 1",
    "hamming:0:2": "hamming:d:q needs d >= 1 and q >= 1",
    "hamming:2:0": "hamming:d:q needs d >= 1 and q >= 1",
}


@pytest.mark.parametrize("text, message", PARSE_ERRORS.items())
def test_parse_error_texts(text, message):
    with pytest.raises(ValueError) as err:
        parse_family(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [(FamilySpec("johnson", (3, 3)), "johnson:n:k needs 1 <= k < n"),
     (FamilySpec("cycle", (2,)), "cycle:n needs n >= 3"),
     (FamilySpec("named", (), "zzz"), f"unknown graph name 'zzz' (known: {KNOWN_NAMES})")],
)
def test_build_refuses_an_invalid_constructed_spec(spec, message):
    with pytest.raises(ValueError) as err:
        build(spec)
    assert str(err.value) == message
