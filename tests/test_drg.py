"""Intersection arrays, distance-regularity, strongly regular parameters."""

import re
from random import Random

import pytest

from drgcert.drg import (
    IntersectionArray,
    NotDistanceRegular,
    intersection_array,
    is_distance_regular,
    k_sequence,
    srg_params,
)
from drgcert.autgroup import automorphism_group
from drgcert.families import build
from drgcert.graph import DisconnectedGraphError, Graph, cartesian_product, distances, girth
from oracles import (
    intersection_array_reference,
    oracle_inputs,
    random_connected_graph,
    recount_distance_regular,
    srg_params_reference,
    vertex_orbits_reference,
)


def test_array_container():
    arr = IntersectionArray((3, 2, 1), (1, 2, 3))
    assert arr.diameter == 3
    assert arr.degree == 3
    assert str(arr) == "{3,2,1;1,2,3}"
    assert arr.b_at(0) == 3
    assert arr.b_at(3) == 0  # past the end by convention
    assert arr.c_at(1) == 1 and arr.c_at(3) == 3
    assert IntersectionArray.parse("{3,2,1;1,2,3}") == arr


def test_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray((3, 2), (2, 2))  # c_1 must be 1
    with pytest.raises(ValueError):
        IntersectionArray((3, 0), (1, 2))
    with pytest.raises(ValueError):
        IntersectionArray((3, 2), (1,))


def test_known_arrays():
    expectations = {
        "named:petersen": "{3,2;1,1}",
        "named:heawood": "{3,2,2;1,1,3}",
        "named:pappus": "{3,2,2,1;1,1,2,3}",
        "named:desargues": "{3,2,2,1,1;1,1,2,2,3}",
        "named:dodecahedron": "{3,2,1,1,1;1,1,1,2,3}",
        "named:coxeter": "{3,2,2,1;1,1,1,2}",
        "named:icosahedron": "{5,2,1;1,2,5}",
        "named:foster": "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}",
        "named:biggs_smith": "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}",
        "named:hoffman_singleton": "{7,6;1,1}",
        "hamming:3:3": "{6,4,2;1,2,3}",
        "johnson:6:3": "{9,4,1;1,4,9}",
        "paley:13": "{6,3;1,3}",
        "paley:17": "{8,4;1,4}",
        "cube:4": "{4,3,2,1;1,2,3,4}",
        # odd graph O_4 on 35 vertices
        "odd:4": "{4,3,3;1,1,2}",
        "kneser:8:2": "{15,8;1,10}",
    }
    for key, expected in expectations.items():
        arr = intersection_array(build(key))
        assert arr, key
        assert str(arr) == expected, key


def test_not_distance_regular_witness():
    # path on 4 vertices is regular nowhere
    res = intersection_array(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert not res
    assert isinstance(res, NotDistanceRegular)
    assert res.reason
    # regular but not distance-regular: prism over a triangle has two kinds
    # of distance-2 pairs
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                      (0, 3), (1, 4), (2, 5)])
    res = intersection_array(prism)
    assert not res and res.witness is not None


def test_disconnected_raises():
    with pytest.raises(DisconnectedGraphError):
        intersection_array(Graph(4, [(0, 1), (2, 3)]))


def test_trivial_graph():
    for n in (0, 1):
        arr = intersection_array(Graph(n))
        assert isinstance(arr, NotDistanceRegular) and arr.reason == "trivial graph"
        assert not is_distance_regular(Graph(n))


def test_distance_regular_matches_recount():
    rng = Random(616001)
    hits = 0
    for _ in range(150):
        n = rng.randint(2, 11)
        g = random_connected_graph(rng, n)
        ours = is_distance_regular(g)
        assert ours == recount_distance_regular(g)
        hits += ours
    assert hits > 0  # complete graphs do appear in the sample


def test_array_matches_reference():
    # arrays, witnesses and reasons as the neighbor sweep gives them; the
    # random graphs and their relatives reach every reason but "b_d
    # nonzero", which no connected graph has and only the reference tests
    reasons = set()
    for label, g in oracle_inputs():
        dd = distances(g)
        if not dd.connected:
            with pytest.raises(DisconnectedGraphError):
                intersection_array(g, dd)
            continue
        got = intersection_array(g, dd)
        assert got == intersection_array_reference(g, dd), label
        if not got:
            reasons.add(re.sub(r"_\d+", "_i", got.reason))
    assert reasons == {"trivial graph", "not regular", "b_i not constant", "c_i not constant"}


def test_k_sequence():
    arr = intersection_array(build("named:petersen"))
    assert k_sequence(arr) == (1, 3, 6)
    arr = intersection_array(build("named:icosahedron"))
    assert k_sequence(arr) == (1, 5, 5, 1)
    arr = intersection_array(build("named:desargues"))
    assert k_sequence(arr) == (1, 3, 6, 6, 3, 1)
    # k-sequence sums to the order
    for key in ["named:coxeter", "johnson:6:3", "hamming:3:3"]:
        g = build(key)
        assert sum(k_sequence(intersection_array(g))) == g.n


def test_srg_params():
    p = srg_params(build("named:petersen"))
    assert p and (p.n, p.k, p.lam, p.mu) == (10, 3, 0, 1)
    p = srg_params(build("named:shrikhande"))
    assert p and (p.n, p.k, p.lam, p.mu) == (16, 6, 2, 2)
    p = srg_params(build("hamming:2:4"))
    assert p and (p.n, p.k, p.lam, p.mu) == (16, 6, 2, 2)
    p = srg_params(build("paley:17"))
    assert p and (p.n, p.k, p.lam, p.mu) == (17, 8, 3, 4)
    # diameter 3 graphs are not strongly regular
    assert srg_params(build("named:heawood")) is None


def test_srg_params_match_reference():
    found = 0
    for label, g in oracle_inputs():
        p = srg_params(g)
        assert p == srg_params_reference(g), label
        found += p is not None
    assert found == 28


def test_same_srg_params_different_graphs():
    # Shrikhande and the 4x4 rook's graph share parameters but differ
    from oracles import are_isomorphic

    a = build("named:shrikhande")
    b = build("hamming:2:4")
    assert srg_params(a) == srg_params(b)
    assert not are_isomorphic(a, b)


def test_kseq_consistency_with_distances():
    g = build("named:dodecahedron")
    arr = intersection_array(g)
    dd = distances(g)
    assert tuple(mask.bit_count() for mask in dd.sphere_masks[0]) == k_sequence(arr)


def test_one_root_per_vertex_orbit_gives_the_full_sweep():
    # on every oracle input, the least vertex of each vertex orbit of the
    # searched group gives the full sweep's girth and array, the witness of
    # a graph that is not distance-regular included
    inputs = several = not_regular = 0
    for label, g in oracle_inputs():
        gens = automorphism_group(g).generators
        roots = [orbit[0] for orbit in vertex_orbits_reference(g.n, gens)]
        inputs += 1
        several += 1 < len(roots) < g.n
        dd = distances(g)
        assert girth(g, dd, _roots=roots) == girth(g, dd), label
        if dd.connected:
            full = intersection_array(g, dd)
            assert intersection_array(g, dd, _roots=roots) == full, label
            not_regular += not full
    assert inputs == 700 and several == 330 and not_regular == 418


def test_vertex_zero_witness_on_the_pentagonal_prism():
    # vertex-transitive but not distance-regular: the full sweep fails
    # first at vertex 0, with the witness the vertex-0 walk gives
    prism = cartesian_product(Graph(5, [(i, (i + 1) % 5) for i in range(5)]), Graph(2, [(0, 1)]))
    assert len(vertex_orbits_reference(prism.n, automorphism_group(prism).generators)) == 1
    full = intersection_array(prism)
    assert isinstance(full, NotDistanceRegular) and full.witness[0] == 0
    assert intersection_array(prism, _roots=[0]) == full
    assert girth(prism, _roots=[0]) == girth(prism) == 4
