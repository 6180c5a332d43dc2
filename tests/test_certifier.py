"""Rule engine and audit: chains, pair coverage, tampering, transfers."""

import hashlib
import importlib
import json
from dataclasses import fields, replace

import pytest

from drgcert import autgroup
from drgcert.certify import (
    DEFAULT_SEARCH_BUDGET,
    INCONCLUSIVE,
    Certificate,
    _Budget,
    _Invariants,
    _pair_search,
    audit,
    certify,
    certify_via_complement,
    transfer_certificate,
)
from drgcert.expected import HAS_QSYM, NO_QSYM, UNKNOWN, load_tables
from drgcert.families import build
from drgcert.graph import (
    DisconnectedGraphError,
    Graph,
    cartesian_product,
    complement,
    distances,
    girth,
    line_graph,
)
from drgcert.io import to_graph6
from drgcert.knowledge import verdict_for
from oracles import are_isomorphic, automorphism_group_reference

# the package re-exports the function certify under the module's name
certify_module = importlib.import_module("drgcert.certify")


def rule_chain(cert):
    return [(a.rule, a.m) for a in cert.applications]


def variant_chain(cert):
    return [
        (a.rule, a.m, a.params.get("variant"))
        for a in cert.applications
        if a.rule in ("array-step", "cubic-step")
    ]


def certified_ok(key, **kw):
    g = build(key)
    cert = certify(g, family=key, **kw)
    assert cert.verdict == NO_QSYM, (key, cert.verdict, cert.open_classes)
    result = audit(cert, g)
    assert result, (key, result.failure)
    return cert


# ------------------------------------------------------------ rule chains


def test_petersen_chain():
    cert = certified_ok("named:petersen")
    assert rule_chain(cert) == [("girth-at-least-5", 1), ("cubic-distance-two", 2)]


def test_heawood_chain():
    cert = certified_ok("named:heawood")
    assert rule_chain(cert) == [
        ("girth-at-least-5", 1),
        ("cubic-distance-two", 2),
        ("array-step", 3),
    ]
    assert variant_chain(cert) == [("array-step", 3, "a")]


def test_pappus_chain():
    cert = certified_ok("named:pappus")
    assert variant_chain(cert) == [("array-step", 3, "a"), ("array-step", 4, "a")]


def test_desargues_chain():
    cert = certified_ok("named:desargues")
    assert variant_chain(cert) == [
        ("array-step", 3, "a"),
        ("array-step", 4, "a"),
        ("array-step", 5, "a"),
    ]


def test_dodecahedron_chain():
    cert = certified_ok("named:dodecahedron")
    assert rule_chain(cert)[2:] == [("cubic-step", 3), ("array-step", 4), ("array-step", 5)]
    assert variant_chain(cert)[0] == ("cubic-step", 3, "i")


def test_coxeter_chain():
    cert = certified_ok("named:coxeter")
    assert rule_chain(cert) == [
        ("girth-at-least-5", 1),
        ("cubic-distance-two", 2),
        ("cubic-step", 3),
        ("array-step", 4),
    ]
    assert variant_chain(cert)[0] == ("cubic-step", 3, "ii")


def test_icosahedron_chain():
    cert = certified_ok("named:icosahedron")
    assert rule_chain(cert) == [
        ("two-common-neighbors", 1),
        ("array-step", 2),
        ("unique-at-distance", 3),
    ]
    assert variant_chain(cert) == [("array-step", 2, "c")]


def test_shrikhande_chain():
    cert = certified_ok("named:shrikhande")
    assert rule_chain(cert) == [("two-common-neighbors", 1), ("array-step", 2)]
    assert variant_chain(cert) == [("array-step", 2, "c")]


def test_rook_3x3_chain():
    cert = certified_ok("hamming:2:3")
    assert rule_chain(cert) == [("one-common-neighbor", 1), ("pivot-intersection", 2)]


def test_hamming_3_3_chain():
    cert = certified_ok("hamming:3:3")
    assert rule_chain(cert) == [
        ("one-common-neighbor", 1),
        ("pivot-intersection", 2),
        ("pivot-intersection", 3),
    ]


def test_paley_chains():
    for key in ("paley:13", "paley:17"):
        cert = certified_ok(key)
        chain = rule_chain(cert)
        assert chain[0] == ("distance-witness", 1), key
        assert chain[1][1] == 2, key  # class 2 found by search
        assert cert.certified == (1, 2), key


def test_foster_and_biggs_smith_certify_fully():
    for key in ("named:foster", "named:biggs_smith"):
        cert = certified_ok(key)
        assert cert.open_classes == ()


def test_tutte_8_cage_partial():
    g = build("named:tutte_8_cage")
    cert = certify(g, family="named:tutte_8_cage")
    assert cert.verdict == INCONCLUSIVE
    assert set(cert.certified) >= {1, 2}
    assert audit(cert, g)


def test_hoffman_singleton_partial():
    g = build("named:hoffman_singleton")
    cert = certify(g, family="named:hoffman_singleton")
    assert 1 in cert.certified
    assert cert.verdict in (NO_QSYM, INCONCLUSIVE)
    assert cert.family == "named:hoffman_singleton"
    assert verdict_for(cert.family).verdict == NO_QSYM
    assert audit(cert, g)


def test_johnson_6_3_reports_open_question():
    g = build("johnson:6:3")
    cert = certify(g, family="johnson:6:3")
    assert cert.family == "johnson:6:3" and verdict_for(cert.family).verdict == UNKNOWN
    assert cert.verdict != HAS_QSYM
    assert 3 in cert.certified  # antipodal class has a unique far vertex
    assert audit(cert, g)


# --------------------------------------------------------- verdict logic


def test_knowledge_base_short_circuit():
    for key in ("hamming:2:4", "complete:4", "complete_bipartite:3", "cube:3"):
        g = build(key)
        cert = certify(g, family=key)
        assert cert.verdict == HAS_QSYM
        assert len(cert.applications) == 1
        assert cert.applications[0].rule == "known-quantum-symmetry"
        assert audit(cert, g), key


def test_no_family_means_no_has_verdict():
    # without a spec, the rook's graph is judged by rules alone and the
    # engine can only be inconclusive, never claim quantum symmetry
    g = build("hamming:2:4")
    cert = certify(g)
    assert cert.verdict == INCONCLUSIVE
    assert cert.family is None
    assert audit(cert, g)


def test_cube_without_family_stays_open():
    g = build("cube:3")
    cert = certify(g)
    assert cert.verdict == INCONCLUSIVE
    assert 1 in cert.open_classes
    assert audit(cert, g)


def test_trivial_graphs():
    one = Graph(1)
    cert = certify(one)
    assert cert.verdict == NO_QSYM and cert.applications == ()
    assert audit(cert, one)

    two = Graph(2, [(0, 1)])
    cert = certify(two)
    assert cert.verdict == NO_QSYM
    assert audit(cert, two)


def test_four_cycle_stays_open():
    c4 = build("cycle:4")
    cert = certify(c4)
    assert cert.verdict == INCONCLUSIVE
    assert cert.open_classes == (1,)
    assert audit(cert, c4)


# graphs with quantum symmetry; the table rows recorded HAS_QSYM are added
QUANTUM_GRAPHS = (
    [f"complete:{n}" for n in range(4, 9)]
    + [f"complete_bipartite:{n}" for n in range(2, 7)]
    + [f"crown:{n}" for n in range(4, 8)]
    + [f"cube:{d}" for d in range(2, 6)]
    + ["hamming:2:4", "hamming:3:4", "named:clebsch", "cycle:4"]
)


def test_engine_never_proves_a_quantum_graph_classical():
    # the soundness gate: with the knowledge base bypassed, no rule chain
    # may reach NO_QSYM on a graph that has quantum symmetry
    rows = [row.key for row in load_tables().graphs.values() if row.verdict == HAS_QSYM]
    assert rows
    for key in dict.fromkeys(QUANTUM_GRAPHS + rows):
        g = build(key)
        for mode in ("auto", "all-pairs"):
            cert = certify(g, mode=mode)
            assert cert.verdict == INCONCLUSIVE, (key, mode)
            assert audit(cert, g), (key, mode)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        certify(Graph(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------- pair coverage


def test_orbit_mode_refused_without_transitivity():
    # "auto" and "all-pairs" are the only modes: auto covers one pair per
    # orbit of the group on any vertex-transitive graph, so there is no
    # separate orbit mode left to refuse
    with pytest.raises(ValueError):
        certify(build("named:shrikhande"), mode="orbit")
    with pytest.raises(ValueError):
        certify(build("named:petersen"), mode="sideways")


def pair_counts(cert):
    return [len(a.params["pairs"]) for a in cert.applications if "pairs" in a.params]


def test_forced_all_pairs_matches_orbit_verdict():
    # on a distance-transitive graph auto records one pair per class with
    # the generators, all-pairs every ordered pair and no generators
    g = build("paley:13")
    auto = certify(g, family="paley:13")
    allp = certify(g, family="paley:13", mode="all-pairs")
    assert auto.verdict == allp.verdict == NO_QSYM
    assert rule_chain(auto) == rule_chain(allp)
    assert audit(auto, g) and audit(allp, g)
    assert pair_counts(auto) == [1, 1] and auto.generators
    assert pair_counts(allp) == [78, 78] and allp.generators == ()


# vertex-transitive graphs that are not distance-transitive
VERTEX_TRANSITIVE = {
    "K2xK3": cartesian_product(build("complete:2"), build("complete:3")),
    "C5xC5": cartesian_product(build("cycle:5"), build("cycle:5")),
    "K3xShrikhande": cartesian_product(build("complete:3"), build("named:shrikhande")),
    "L(Q3)": line_graph(build("cube:3")),
    "L(dodecahedron)": line_graph(build("named:dodecahedron")),
    "K2xPetersen": cartesian_product(build("complete:2"), build("named:petersen")),
}


@pytest.mark.parametrize("name", sorted(VERTEX_TRANSITIVE))
def test_orbit_representatives_agree_with_all_pairs(name):
    # one pair per orbit proves what every pair proves: same verdict, same
    # classes, same rule chain, and both certificates pass the audit
    g = VERTEX_TRANSITIVE[name]
    auto = certify(g)
    allp = certify(g, mode="all-pairs")
    assert (auto.verdict, auto.certified, rule_chain(auto)) == (
        allp.verdict,
        allp.certified,
        rule_chain(allp),
    )
    assert audit(auto, g) and audit(allp, g)
    assert max(pair_counts(auto)) > 1 and auto.generators
    assert sum(pair_counts(auto)) < sum(pair_counts(allp))


def _minus_vertex_0(g):
    return Graph(g.n - 1, [(u - 1, v - 1) for u, v in g.edges if u and v])


# connected graphs with a nontrivial group that is not transitive on the
# vertices, and the number of pairs their auto certificates record
NOT_VERTEX_TRANSITIVE = {
    "Petersen-0": (_minus_vertex_0(build("named:petersen")), 5),
    "P5": (Graph(5, [(i, i + 1) for i in range(4)]), 10),
    "Foster-0": (_minus_vertex_0(build("named:foster")), 363),
}


@pytest.mark.parametrize("name", sorted(NOT_VERTEX_TRANSITIVE))
def test_coverage_without_vertex_transitivity(name):
    # one pair per orbit of the pairs (r, x), r the least vertex of each
    # vertex orbit, proves what every pair proves; the audit holds the
    # recorded pairs to exactly those of the recorded generators, and still
    # accepts the certificate with every pair and no generators
    g, count = NOT_VERTEX_TRANSITIVE[name]
    auto = certify(g)
    allp = certify(g, mode="all-pairs")
    assert auto.generators and allp.generators == ()
    assert sum(pair_counts(auto)) == count < sum(pair_counts(allp))
    assert (auto.verdict, auto.certified, rule_chain(auto)) == (
        allp.verdict,
        allp.certified,
        rule_chain(allp),
    )
    assert audit(auto, g) and audit(allp, g)

    data = auto.to_dict()
    pair_app = next(a for a in data["applications"] if "pairs" in a["params"])
    del pair_app["params"]["pairs"][-1]
    result = audit(Certificate.from_dict(data), g)
    assert not result and "recorded pairs are not the covered pairs" in result.failure

    data = auto.to_dict()
    data["generators"] = []
    result = audit(Certificate.from_dict(data), g)
    assert not result and "recorded pairs are not the covered pairs" in result.failure


def test_shrikhande_square_certified():
    # Shrikhande x Shrikhande is vertex-transitive but not distance-
    # transitive; with every pair covered, the search budget runs out on
    # classes 3 and 4, with one pair per orbit it does not
    shrikhande = build("named:shrikhande")
    g = cartesian_product(shrikhande, shrikhande)
    cert = certify(g)
    assert cert.verdict == NO_QSYM
    assert rule_chain(cert)[2:] == [("pivot-intersection", 3), ("pivot-intersection", 4)]
    assert pair_counts(cert) == [2, 3]
    assert audit(cert, g)


def _k3_shrikhande_cert():
    g = VERTEX_TRANSITIVE["K3xShrikhande"]
    data = certify(g).to_dict()
    # classes 1-3 record 2, 3 and 2 pairs, the least of each orbit
    assert [len(a["params"]["pairs"]) for a in data["applications"]] == [2, 3, 2]
    return g, data


def _pairs_of_class_2(data):
    return data["applications"][1]["params"]["pairs"]


def _orbit_mate(data):
    """A copy of class 2's first entry (0, l, ...) moved to (0, s(l)) by a
    generator s that fixes 0 and moves l: a larger pair of l's orbit."""
    entry = _pairs_of_class_2(data)[0]
    s = next(s for s in data["generators"] if s[0] == 0 and s[entry[1]] != entry[1])
    return [0, s[entry[1]], *entry[2:]]


def _not_least_in_orbit(data):
    _pairs_of_class_2(data)[0] = _orbit_mate(data)
    _pairs_of_class_2(data).sort()


def _two_from_one_orbit(data):
    _pairs_of_class_2(data).append(_orbit_mate(data))
    _pairs_of_class_2(data).sort()


def _orbit_missing(data):
    del _pairs_of_class_2(data)[-1]


def _out_of_order(data):
    _pairs_of_class_2(data).reverse()


def _coverage_key(data):
    data["applications"][1]["params"]["coverage"] = "orbit"


def _generators_without_pair_application(data):
    data.update(applications=[], certified=[], open_classes=[1, 2, 3], verdict=INCONCLUSIVE)
    # without the generators this certificate passes
    g = VERTEX_TRANSITIVE["K3xShrikhande"]
    assert audit(Certificate.from_dict({**data, "generators": []}), g)


def _generator_not_an_automorphism(data):
    perm = list(range(48))
    perm[0], perm[1] = perm[1], perm[0]
    data["generators"].append(perm)


@pytest.mark.parametrize(
    "tamper",
    [
        _not_least_in_orbit,
        _two_from_one_orbit,
        _orbit_missing,
        _out_of_order,
        _coverage_key,
        _generators_without_pair_application,
        _generator_not_an_automorphism,
    ],
)
def test_audit_checks_recorded_pairs(tamper):
    g, data = _k3_shrikhande_cert()
    assert audit(Certificate.from_dict(data), g)
    tamper(data)
    result = audit(Certificate.from_dict(data), g)
    assert not result and result.failure


def test_orbit_generators_recorded_only_when_used():
    # search rules quantify over pairs, so the generators must be recorded
    with_search = certify(build("hamming:3:3"), family="hamming:3:3")
    assert with_search.generators
    # a chain of whole-class rules needs no coverage argument
    no_search = certify(build("named:heawood"), family="named:heawood")
    assert no_search.generators == ()


def test_search_budget_exhaustion_is_honest():
    g = build("paley:13")
    cert = certify(g, family="paley:13", search_budget=10)
    assert cert.verdict == INCONCLUSIVE
    assert cert.open_classes == (1, 2)
    assert any("budget" in note for note in cert.notes)
    assert audit(cert, g)


def test_node_budget_exhaustion_falls_back_to_all_pairs():
    # an automorphism search over its node budget leaves no generators, so
    # every ordered pair of each class is covered, as in mode "all-pairs"
    g = build("hamming:3:3")
    cert = certify(g, family="hamming:3:3", node_budget=1)
    assert cert.notes == ("automorphism search budget exceeded; all-pairs coverage",)
    assert cert.generators == ()
    assert cert.applications == certify(g, family="hamming:3:3", mode="all-pairs").applications
    assert audit(cert, g)


@pytest.mark.parametrize(
    "name,value",
    [("search_budget", -5), ("search_budget", True), ("search_budget", 2.5), ("node_budget", -1)],
)
def test_certify_refuses_invalid_budgets(name, value):
    # the pair search divides what is left of a budget by a set's cost, so
    # a budget is a count: a non-negative int, never a bool or a float
    with pytest.raises(ValueError, match=name):
        certify(build("named:petersen"), **{name: value})


# ---------------------------------------------------------- serialization


def test_json_roundtrip():
    cert = certify(build("named:desargues"), family="named:desargues")
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert "\n" not in cert.to_json()


def test_text_rendering_mentions_everything():
    cert = certify(build("named:coxeter"), family="named:coxeter")
    text = cert.to_text()
    assert "verdict: NO_QSYM" in text
    assert "cubic-step" in text
    assert "graph6:" in text


# the certificates whose to_json() bytes are pinned, each with the sha256
# it had in format 1, which names the test; no code writes format 1 now
CERTIFICATE_DIGESTS = [
    ("named:foster", {}, "214ff176d123087a8a0b5dce81b600accccc4beee9dc49220c56bfea2dbe75ee"),
    ("named:foster", {"mode": "all-pairs"}, "321acf33616283208413e1c20a9f97918e2aa814ee53ae8b513c1154893b258d"),
    ("named:biggs_smith", {}, "322701f8f2acd01eac83dfd77cf56a91747d51919b6fba683000ee144826380b"),
    ("named:biggs_smith", {"mode": "all-pairs"}, "6c5cebcca70adb546d0ecfe3ce3fe336e8db97f716409887b69524e96bca8e6e"),
    ("hamming:3:3", {}, "86128820f455a9559b74f82e0d77c909558df7871ce5a270ded41158612b060a"),
    ("hamming:3:3", {"mode": "all-pairs"}, "c09f6a065c901af7660d48f8df49996866774bc752fcea4fb2448120bd2131f7"),
    ("paley:17", {}, "892029519a3a9661e50daca6d369def27ca20c2d5b0fc6f74f07232f6797c8bc"),
    ("paley:17", {"mode": "all-pairs"}, "51741f016a385b58832bf379b1abe2ce7aa157df1d61b25238c596a66d040d05"),
    ("named:hoffman_singleton", {}, "405106fbb68788d413206e9abae37cd4882076bebe72b0b602c2d5cbdd32a2b7"),
    ("paley:13", {"search_budget": 10}, "b42948bf236ec3b4fab6343f22a92966d3e4ec6c8a59748be8eab83924760600"),
    ("paley:13", {"mode": "all-pairs"}, "00ae93e77bc01a5d2dc7f18834112b1b682a42c198b07731a8814e20002f91d0"),
    ("hamming:2:3", {"mode": "all-pairs"}, "a19017bf74c06c4c4c577e9a87d056aabd8d8ba669c7034354616f5e662532d4"),
    ("named:coxeter", {}, "fe74f4a19c9b1656b6df9b42bb93589741d0f7f18ed77f9db110f7416e06c601"),
    ("johnson:6:3", {}, "4c91c0ff83161e33908726494e7d30ea638248e65780806f8f99b14c4451f6ba"),
    ("cube:3", {}, "4c2bb4bf1c091b16c505c48e5895fb8b3f2e2bc904d64d0559ce15e91d189429"),
    ("complete:12", {}, "bcd5047350a31384f6e49acb765fe36aa4a7b9c8cda25a3f94cf3ce73e285796"),
    ("hamming:3:4", {}, "495148e12e01b9c7e2b94f56c8776be296cd84051b302dffbe1f99683a147647"),
    ("named:clebsch", {}, "4b512718921349994fc11cee6754fec46e241016ef63456b2b1719915f69974f"),
    # pinned only from format 3 on, so it has no format-1 digest: its id is
    # its own format-3 digest
    ("hamming:4:3", {"mode": "all-pairs"}, "1015e44d3f5ce835190e5918715b0ed8933be0ffcbb026373a751f339a22f12b"),
]


# sha256 of to_json() in format 3 for each format-1 digest above, recorded
# once when the format changed, after a check that each format-3 dict was
# the format-2 one less "mode", with each pair application's params
# rewritten to the one "pairs" list
PINNED_DIGESTS = {
    "214ff176d123087a8a0b5dce81b600accccc4beee9dc49220c56bfea2dbe75ee":
        "4545f62a505787d6e0a7266ed1596b481c5ad6d08a4509909a2b1a0cbb70159e",
    "321acf33616283208413e1c20a9f97918e2aa814ee53ae8b513c1154893b258d":
        "4d42ef655d3123b1fba8646e6355ca3971a46a97d05997d232a0af103fad6277",
    "322701f8f2acd01eac83dfd77cf56a91747d51919b6fba683000ee144826380b":
        "71f1d924f094628cc1b054f3a216eb2a7d24c4b54db1100e57abf10956c22e36",
    "6c5cebcca70adb546d0ecfe3ce3fe336e8db97f716409887b69524e96bca8e6e":
        "b3c62bc1bae4a8e6984d9d0de781192394a149bf48c01854f2d0d37648a18334",
    "86128820f455a9559b74f82e0d77c909558df7871ce5a270ded41158612b060a":
        "d92950f3546bd1cf07f61d7bdbdda86d9bcc76441d7544f8778a0cf49323dcb6",
    "c09f6a065c901af7660d48f8df49996866774bc752fcea4fb2448120bd2131f7":
        "6d86ceb56b459ea62d68308830784a5727e9725d7dbd9d794421180c0f0a0197",
    "892029519a3a9661e50daca6d369def27ca20c2d5b0fc6f74f07232f6797c8bc":
        "328356c8bc9a821c13d14fce178da57aaf91e65aabd9d917db9e863c129c40e0",
    "51741f016a385b58832bf379b1abe2ce7aa157df1d61b25238c596a66d040d05":
        "2a5edb5b57e9b9469b1412f6cc4241b4cbabd279f7932281c2b5681633a852fb",
    "405106fbb68788d413206e9abae37cd4882076bebe72b0b602c2d5cbdd32a2b7":
        "464af498d48b5debbaf72d0aabbb0faf60cc349f81bdf1033e9afb7cb8d7432e",
    "b42948bf236ec3b4fab6343f22a92966d3e4ec6c8a59748be8eab83924760600":
        "3bec6aec62386e57751c1465f3247906a470cf2c55a5d2f20b02fcd5efe8cf14",
    "00ae93e77bc01a5d2dc7f18834112b1b682a42c198b07731a8814e20002f91d0":
        "cd93eb460ff745342470a4e089f56c73e256db589dc510609b2b976fb6a83501",
    "a19017bf74c06c4c4c577e9a87d056aabd8d8ba669c7034354616f5e662532d4":
        "8a4a88c235695ad2989d59cf362ecb93d5c5c5cd98462bd3aadeb1d0bae74689",
    "fe74f4a19c9b1656b6df9b42bb93589741d0f7f18ed77f9db110f7416e06c601":
        "ac95663be021929a9d00c60c5f453998a21154c465cfcbec30a6035cf4dc4e0e",
    "4c91c0ff83161e33908726494e7d30ea638248e65780806f8f99b14c4451f6ba":
        "0d930c6dea79bd21c594f9b4fba7a6ee81bed17c82277ec68eb61a9ec1f53392",
    "4c2bb4bf1c091b16c505c48e5895fb8b3f2e2bc904d64d0559ce15e91d189429":
        "44c7b85fbf9f57ca11850a45ba19f54a0ff917aac7b48e76571b123e74789fef",
    "bcd5047350a31384f6e49acb765fe36aa4a7b9c8cda25a3f94cf3ce73e285796":
        "8e81cb1fe34eee06bf37d31b989ef0443da379c7256a1dd69fd0d73eda423ada",
    "495148e12e01b9c7e2b94f56c8776be296cd84051b302dffbe1f99683a147647":
        "774aef3730effbffb7072d8d0cad6401f73c4cf2a7c04a452715f9f0ca123301",
    "4b512718921349994fc11cee6754fec46e241016ef63456b2b1719915f69974f":
        "33fc2f5b5eefd576cbc1591a3df3325c6293e5ecd512da7e6263968a52e3db0a",
    "1015e44d3f5ce835190e5918715b0ed8933be0ffcbb026373a751f339a22f12b":
        "1015e44d3f5ce835190e5918715b0ed8933be0ffcbb026373a751f339a22f12b",
}


# sha256 of to_json() for the format-3 digests above whose certificates
# changed when the automorphism search began to return to the first path:
# only "generators" changed, to a subsequence of the recorded generators.
# The digests above are still checked, on certificates whose generators
# come from the reference search.
FIRST_PATH_DIGESTS = {
    "4545f62a505787d6e0a7266ed1596b481c5ad6d08a4509909a2b1a0cbb70159e":
        "0688e0cd856d5499822c6eaa80f1089dd87b2fdfa1da980d8fbaadbae22dab3b",
    "71f1d924f094628cc1b054f3a216eb2a7d24c4b54db1100e57abf10956c22e36":
        "0563c076163404fbbb2762e2f5c51997e413ca8bc62a87d0c12e0bf456023123",
    "d92950f3546bd1cf07f61d7bdbdda86d9bcc76441d7544f8778a0cf49323dcb6":
        "62136a2267aeb65fe598bc6d1e2250175efae0266fd82e44c5529cf8067674f1",
    "328356c8bc9a821c13d14fce178da57aaf91e65aabd9d917db9e863c129c40e0":
        "04dbcf13ce5580546900f3549a021bfc3d80a02548a2c96e09dca2979d69e28b",
}


def _reference_invariants(g):
    """g's _Invariants with the group of the reference search."""
    inv = _Invariants(g)
    inv.group = lambda node_budget: automorphism_group_reference(g, node_budget)
    return inv


def _sha256(cert) -> str:
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


@pytest.mark.parametrize("key,options,digest", CERTIFICATE_DIGESTS)
def test_certificate_bytes_pinned(key, options, digest):
    g, pinned = build(key), PINNED_DIGESTS[digest]
    assert _sha256(certify(g, family=key, **options)) == FIRST_PATH_DIGESTS.get(pinned, pinned)
    assert _sha256(certify(_reference_invariants(g), family=key, **options)) == pinned


def test_format_version_checked():
    cert = certify(build("complete:3"))
    data = cert.to_dict()
    data["format_version"] = 99
    with pytest.raises(ValueError):
        Certificate.from_dict(data)


# ----------------------------------------------------------------- audit


def test_audit_rejects_wrong_graph():
    cert = certify(build("named:petersen"), family="named:petersen")
    assert not audit(cert, build("named:heawood"))
    # same order, different edges
    other = build("cycle:10")
    result = audit(cert, other)
    assert not result and "graph6" in result.failure


def test_audit_rejects_tampered_pivot():
    g = build("hamming:2:3")
    cert = certify(g, family="hamming:2:3")
    data = cert.to_dict()
    app = data["applications"][1]
    assert app["rule"] == "pivot-intersection"
    del app["params"]["pairs"][0][2][1:]
    assert not audit(Certificate.from_dict(data), g)


def test_audit_rejects_wrong_array_variant():
    g = build("named:heawood")
    cert = certify(g, family="named:heawood")
    data = cert.to_dict()
    app = data["applications"][2]
    assert app["rule"] == "array-step"
    app["params"]["variant"] = "b"
    result = audit(Certificate.from_dict(data), g)
    assert not result and "variant" in result.failure


def test_audit_rejects_missing_class():
    g = build("named:desargues")
    cert = certify(g, family="named:desargues")
    data = cert.to_dict()
    data["applications"] = data["applications"][:-1]
    data["certified"] = [1, 2, 3, 4]
    result = audit(Certificate.from_dict(data), g)
    assert not result


def test_audit_rejects_forged_witness():
    from oracles import floyd_warshall

    g = build("paley:17")
    cert = certify(g, family="paley:17")
    data = json.loads(cert.to_json())
    params = data["applications"][0]["params"]
    assert data["applications"][0]["rule"] == "distance-witness"
    # replace a witness by a vertex that fails the separation requirement,
    # which no valid witness may do
    j, _l, witnesses = params["pairs"][0]
    p = witnesses[0][0]
    dist = floyd_warshall(g)
    forged = next(q for q in range(g.n) if dist[j][q] == dist[q][p])
    witnesses[0][1] = forged
    result = audit(Certificate.from_dict(data), g)
    assert not result and "witness" in result.failure


def test_audit_rejects_duplicate_class():
    g = build("named:petersen")
    cert = certify(g, family="named:petersen")
    data = cert.to_dict()
    data["applications"].append(data["applications"][0])
    result = audit(Certificate.from_dict(data), g)
    assert not result and "twice" in result.failure


def test_audit_rejects_counterfeit_has_verdict():
    # a HAS_QSYM certificate naming a family the graph is not isomorphic
    # to; the octahedron matches K_{3,3} in order and diameter but not as
    # a graph
    cert = certify(build("complete_bipartite:3"), family="complete_bipartite:3")
    data = cert.to_dict()
    other = build("johnson:4:2")
    data["graph6"] = to_graph6(other)
    result = audit(Certificate.from_dict(data), other)
    assert not result and "isomorphic" in result.failure


def test_audit_rejects_no_qsym_on_quantum_graph():
    # transplanted rule applications cannot force NO_QSYM onto the rook's
    # graph: replayed rules fail on the target graph
    rook = build("hamming:2:4")
    donor = certify(build("named:shrikhande"), family="named:shrikhande")
    data = donor.to_dict()
    data["graph6"] = to_graph6(rook)
    data["label"] = "counterfeit"
    data["family"] = None
    result = audit(Certificate.from_dict(data), rook)
    assert not result


def test_audit_rejects_tampered_generators():
    cert = certify(build("hamming:3:3"), family="hamming:3:3")
    data = cert.to_dict()
    perm = list(range(27))
    perm[0], perm[1] = perm[1], perm[0]
    data["generators"] = [perm]
    result = audit(Certificate.from_dict(data), build("hamming:3:3"))
    assert not result


def test_audit_refuses_generators_not_transitive():
    # the generators fixing 0 are automorphisms, but the pairs (0, x) they
    # cover on a class do not reach pairs (a, b) with a != 0: under them
    # every vertex orbit has its own root, so the recorded pairs are not
    # the covered pairs
    g = build("hamming:3:3")
    data = certify(g, family="hamming:3:3").to_dict()
    assert audit(Certificate.from_dict(data), g)
    fixing = [p for p in data["generators"] if p[0] == 0]
    assert 0 < len(fixing) < len(data["generators"])
    data["generators"] = fixing
    result = audit(Certificate.from_dict(data), g)
    assert not result and result.failure == (
        "application 2 (pivot-intersection, m=2): recorded pairs are not the covered pairs of class 2"
    )


def test_audit_fails_on_malformed_generators():
    g = build("hamming:3:3")
    data = certify(g, family="hamming:3:3").to_dict()
    data["generators"] = [["a"] * 27]
    result = audit(Certificate.from_dict(data), g)
    assert not result and "generator" in result.failure


def test_application_params_not_trusted():
    # recorded scalars must match recomputed values
    g = build("named:petersen")
    cert = certify(g, family="named:petersen")
    data = cert.to_dict()
    data["applications"][0]["params"]["girth"] = 6
    result = audit(Certificate.from_dict(data), g)
    assert not result and "girth" in result.failure


def test_audit_has_qsym_checks_class_lists_and_generators():
    g = build("cube:3")
    cert = certify(g, family="cube:3")
    assert cert.verdict == HAS_QSYM and audit(cert, g)
    for edit in (
        {"certified": [1, 2, 3], "open_classes": []},
        {"certified": [1]},
        {"open_classes": [1, 2]},
        {"open_classes": [True, 2, 3]},
        {"generators": [list(range(8))]},
    ):
        data = cert.to_dict()
        data.update(edit)
        assert not audit(Certificate.from_dict(data), g), edit


@pytest.mark.parametrize(
    "spec, index, key",
    [
        ("named:line_petersen", 0, "common_neighbors"),
        ("named:petersen", 1, "degree"),
        ("named:petersen", 1, "girth"),
    ],
)
@pytest.mark.parametrize("value", [1_000_000, True, "", {}])
def test_audit_checks_recorded_params(spec, index, key, value):
    g = build(spec)
    data = certify(g, family=spec).to_dict()
    assert key in data["applications"][index]["params"]
    data["applications"][index]["params"][key] = value
    assert not audit(Certificate.from_dict(data), g)
    data["applications"][index]["params"] = {}
    assert not audit(Certificate.from_dict(data), g)


def test_to_dict_shares_nothing_with_certificate():
    g = build("named:line_petersen")
    cert = certify(g, family="named:line_petersen")
    text = cert.to_json()
    data = cert.to_dict()
    data["applications"][0]["params"]["common_neighbors"] = 6
    data["applications"][1]["params"]["pairs"][0][2].append(0)
    assert cert.to_json() == text and audit(cert, g)
    # and a certificate read from a dict keeps no part of it
    data = cert.to_dict()
    loaded = Certificate.from_dict(data)
    data["applications"][1]["params"]["pairs"][0][2].append(0)
    assert loaded.to_json() == text and audit(loaded, g)


FIELD_TAMPERS = [
    ("named:petersen", ("degree",), 4),
    ("named:petersen", ("degree",), None),
    ("cube:3", ("degree",), 4),
    ("complete:3", ("diameter",), True),
    # format 3 records no coverage mode, in no params dict
    ("hamming:3:3", ("applications", 1, "params", "coverage"), "all-pairs"),
    ("hamming:3:3", ("applications", 1, "params", "mode"), "knowledge-base"),
    ("named:petersen", ("applications", 0, "params", "coverage"), "sideways"),
    ("cube:3", ("applications", 0, "params", "coverage"), "orbit"),
    ("named:petersen", ("generators",), [["x"]]),
    ("named:petersen", ("generators",), [[1, 0, *range(2, 10)]]),
    ("cube:3", ("applications", 0, "m"), 2),
    # keys added to the knowledge-base params, which are empty
    ("cube:3", ("applications", 0, "params", "reason"), 2),
    ("cube:3", ("applications", 0, "params", "quantum_group"), {}),
    ("cube:3", ("family",), "made up"),
    ("cube:3", ("verdict",), "UNKNOWN"),
    ("cube:3", ("applications", 0, "rule"), "made up"),
    ("cube:3", ("diameter",), 6),
    ("cube:3", ("graph6",), "{3,2;1,2}"),
    ("cube:3", ("notes",), ["made up"]),
    ("johnson:6:3", ("verdict",), "HAS_QSYM"),
    ("johnson:6:3", ("verdict",), "maybe"),
    ("named:petersen", ("family",), "maybe"),
    ("cube:3", ("family",), "cube:4"),
    ("cube:3", ("family",), "Cube:3"),
    ("cube:3", ("family",), "complete:8"),
    ("cube:3", ("family",), None),
    ("named:petersen", ("family",), "named:Petersen"),
    ("named:petersen", ("family",), "johnson:5:2"),
    ("named:petersen", ("family",), "complete:10"),
    ("named:petersen", ("n",), 11),
    ("cube:3", ("n",), 7),
    ("named:petersen", ("certified",), [1]),
    ("named:petersen", ("certified",), [2, 1]),
    ("cube:3", ("certified",), [1, 2, 3]),
    ("named:petersen", ("open_classes",), [2]),
    ("johnson:6:3", ("open_classes",), []),
    ("cube:3", ("open_classes",), [1, 2]),
]


@pytest.mark.parametrize("key,path,value", FIELD_TAMPERS)
def test_audit_checks_degree_mode_generators_and_fact(key, path, value):
    # the cases edit every field but the label, which is free text
    assert {path[0] for _, path, _ in FIELD_TAMPERS} == {
        f.name for f in fields(Certificate) if f.name != "label"
    }
    g = build(key)
    data = certify(g, family=key).to_dict()
    *steps, last = path
    target = data
    for step in steps:
        target = target[step]
    # only a params dict may gain a key: the schema refuses any other
    assert last in target or steps[-1:] == ["params"], path
    target[last] = value
    assert _rejected(data, g)


def _rejected(data, g) -> bool:
    """Whether a certificate dict fails to load or fails its audit."""
    try:
        cert = Certificate.from_dict(data)
    except ValueError:
        return True
    return not audit(cert, g)


def test_audit_refuses_relabelled_family_member():
    # certify attaches a family's fact only to the graph as built, and the
    # audit binds it by the same test: an isomorphic copy is refused
    g = build("cube:3")
    swap = [1, 0, *range(2, 8)]
    copy = Graph(8, [(swap[u], swap[v]) for u, v in g.edges])
    assert copy != g and are_isomorphic(copy, g)
    with pytest.raises(ValueError, match="cube:3"):
        certify(copy, family="cube:3")
    data = certify(g, family="cube:3").to_dict()
    data["graph6"] = to_graph6(copy)
    result = audit(Certificate.from_dict(data), copy)
    assert not result and "isomorphic" in result.failure


def test_family_size_checked_before_build(monkeypatch):
    # a certificate naming a larger family must fail before that family is
    # built, and certify refuses such a family the same way
    from drgcert import families

    g = build("cube:3")
    data = certify(g, family="cube:3").to_dict()

    def no_build(key):
        raise AssertionError(f"built {key}")

    monkeypatch.setattr(families, "_build_cached", no_build)
    # cube:20000 has a vertex count too long to print as a decimal
    for key in ("complete:1200", "cube:20000"):
        data["family"] = key
        result = audit(Certificate.from_dict(data), g)
        assert not result and "8 vertices" in result.failure, key
        with pytest.raises(ValueError, match=key):
            certify(g, family=key)


def test_audit_searches_nothing(monkeypatch):
    keys = (
        "complete:16",
        "complete_bipartite:10",
        "crown:20",
        # the HAS_QSYM graphs of the allpairs_kb benchmark workload
        "hamming:3:4",
        "crown:10",
        "complete:12",
        "complete_bipartite:8",
        "cube:5",
        "named:clebsch",
    )
    certs = [(build(key), certify(build(key), family=key)) for key in keys]
    assert {cert.verdict for _, cert in certs} == {HAS_QSYM}
    g = build("hamming:3:3")
    certs.append((g, certify(g, family="hamming:3:3")))

    def no_search(g, node_budget):
        raise AssertionError("the audit searched for automorphisms")

    monkeypatch.setattr(autgroup, "_search_generators", no_search)
    for g, cert in certs:
        result = audit(cert, g)
        assert result, (cert.label, result.failure)


def test_certify_binds_family_to_graph():
    # a family's recorded fact must never be attached to another graph
    with pytest.raises(ValueError, match="complete:4"):
        certify(build("named:petersen"), family="complete:4")
    with pytest.raises(ValueError, match="named:shrikhande"):
        certify(build("hamming:2:4"), family="named:shrikhande")


# Structural applications of these certificates use every structural rule
# and every array-step and cubic-step variant.
DECISION_SOURCES = (
    "named:petersen",
    "named:heawood",
    "named:line_petersen",
    "named:icosahedron",
    "named:shrikhande",
    "named:dodecahedron",
    "named:coxeter",
    "paley:9",
    "named:biggs_smith",
    "johnson:6:3",
)
STRUCTURAL_RULES = (
    "girth-at-least-5",
    "one-common-neighbor",
    "two-common-neighbors",
    "cubic-distance-two",
    "array-step",
    "cubic-step",
    "unique-at-distance",
)
VARIANTS = ("a", "b", "c", "i", "ii")


def _structural_mutants(apps):
    """Application lists with one structural application changed: each int
    param + 1, each other variant letter, m - 1 and m + 1, each other
    structural rule id, and the application moved ahead of its predecessor."""
    for i, app in enumerate(apps):
        if app["rule"] not in STRUCTURAL_RULES:
            continue
        params = app["params"]
        edits = [("params", {**params, k: v + 1}) for k, v in params.items() if type(v) is int]
        if "variant" in params:
            others = [x for x in VARIANTS if x != params["variant"]]
            edits += [("params", {**params, "variant": x}) for x in others]
        edits += [("m", app["m"] + step) for step in (-1, 1)]
        edits += [("rule", rule) for rule in STRUCTURAL_RULES if rule != app["rule"]]
        for name, value in edits:
            yield [*apps[:i], {**app, name: value}, *apps[i + 1 :]]
        if i > 0:
            yield [*apps[: i - 1], app, apps[i - 1], *apps[i + 1 :]]


def test_structural_audit_decisions_pinned():
    # the audit's accept/reject bits on the mutants, recorded before the
    # structural rules became one function shared by engine and audit; the
    # class lists and verdict are rewritten to match each mutant, so the
    # replayed applications alone decide
    used, bits = set(), []
    for key in DECISION_SOURCES:
        g = build(key)
        data = certify(g, family=key).to_dict()
        used |= {(a["rule"], a["params"].get("variant")) for a in data["applications"]}
        for apps in _structural_mutants(data["applications"]):
            certified = sorted({a["m"] for a in apps})
            open_classes = [m for m in range(1, data["diameter"] + 1) if m not in certified]
            mutant = {
                **data,
                "applications": apps,
                "certified": certified,
                "open_classes": open_classes,
                "verdict": INCONCLUSIVE if open_classes else NO_QSYM,
            }
            bits.append("1" if audit(Certificate.from_dict(mutant), g) else "0")
    assert {rule for rule, _ in used} >= set(STRUCTURAL_RULES)
    assert {variant for _, variant in used} >= set(VARIANTS)
    assert (len(bits), bits.count("1")) == (369, 1)
    digest = hashlib.sha256("".join(bits).encode()).hexdigest()
    assert digest == "bae2ccde3bbd540fabd3abe24b773ff6e83e4592a83af67f5a87b1e84d93187b"


def test_certify_takes_the_engine_invariants():
    # certify on a graph's _Invariants writes what it writes on the graph
    g = build("named:petersen")
    inv = certify_module._Invariants(g)
    by_inv = certify(inv, family="named:petersen")
    assert by_inv.to_json() == certify(g, family="named:petersen").to_json()
    two_edges = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        certify(certify_module._Invariants(two_edges))
    # the options are checked before any graph work
    with pytest.raises(ValueError, match="unknown coverage mode"):
        certify(two_edges, mode="orbit")


def test_pivot_witness_application_replays():
    # no graph in the tables needs pivot-witness, so class 2 of H(3,3) is
    # re-proved with it: pivot 1 separates j=0 from every rival of l=4
    # except 2, 10 and 19, which are killed by witnesses
    g = build("hamming:3:3")
    pinned = _pair_search(
        distances(g), 2, 0, 4, {1}, _Budget(DEFAULT_SEARCH_BUDGET), "pivot-witness"
    )
    assert pinned == {"pivots": [1], "witnesses": [[2, 3], [10, 5], [19, 5]]}
    data = certify(g, family="hamming:3:3").to_dict()
    app = data["applications"][1]
    assert (app["rule"], app["m"]) == ("pivot-intersection", 2)
    app["rule"] = "pivot-witness"
    entry = [0, 4, pinned["pivots"], pinned["witnesses"]]
    app["params"] = {"pairs": [entry]}
    assert audit(Certificate.from_dict(data), g)

    entry[2] = []
    result = audit(Certificate.from_dict(data), g)
    assert not result and "rivals" in result.failure
    for drop in range(3):
        entry[2] = [1]
        entry[3] = [w for i, w in enumerate(pinned["witnesses"]) if i != drop]
        result = audit(Certificate.from_dict(data), g)
        assert not result and "rivals" in result.failure


def _cut_to_j(pairs):
    pairs[0] = pairs[0][:1]


def _pivot_not_a_vertex(pairs):
    pairs[0][2][0] = "a"


def _witness_without_witness(pairs):
    pairs[0][2][0] = pairs[0][2][0][:1]


def _trailing_element(pairs):
    pairs[0].append([])


@pytest.mark.parametrize(
    "key,index,tamper",
    [
        ("hamming:3:3", 1, _cut_to_j),
        ("hamming:3:3", 1, _pivot_not_a_vertex),
        ("paley:17", 0, _witness_without_witness),
        ("hamming:3:3", 1, _trailing_element),
        ("paley:17", 0, _trailing_element),
    ],
)
def test_audit_fails_on_malformed_pair_payload(key, index, tamper):
    g = build(key)
    data = certify(g, family=key, mode="all-pairs").to_dict()
    tamper(data["applications"][index]["params"]["pairs"])
    result = audit(Certificate.from_dict(data), g)
    assert not result and result.failure


def _class_one_as_true(cert):
    first = replace(cert.applications[0], m=True)
    return replace(cert, applications=(first, *cert.applications[1:]))


def _certified_true(cert):
    return replace(cert, certified=(True, *cert.certified[1:]))


def _open_true(cert):
    return replace(cert, open_classes=(True, *cert.open_classes[1:]))


def _n_true(cert):
    return replace(cert, n=True)


def _degree_true(cert):
    return replace(cert, degree=True)


def _diameter_true(cert):
    return replace(cert, diameter=True)


@pytest.mark.parametrize(
    "key,options,tamper",
    [
        ("named:petersen", {}, _class_one_as_true),
        ("named:petersen", {}, _certified_true),
        ("paley:13", {"search_budget": 10}, _open_true),
        ("complete:1", {}, _n_true),
        ("complete:2", {}, _degree_true),
        ("complete:3", {}, _diameter_true),
    ],
)
def test_audit_rejects_bool_for_class(key, options, tamper):
    # True == 1 in Python, so a bool must be refused explicitly, by the
    # audit itself for a certificate built in Python and again on load
    g = build(key)
    cert = certify(g, family=key, **options)
    assert audit(cert, g)
    tampered = tamper(cert)
    assert not audit(tampered, g)
    assert _rejected(tampered.to_dict(), g)


def test_audit_computes_invariants_lazily(monkeypatch):
    calls = {"girth": 0, "array": 0}
    girth, array = certify_module.girth, certify_module.intersection_array

    def counted_girth(g, dd=None):
        calls["girth"] += 1
        return girth(g, dd)

    def counted_array(g, dd=None):
        calls["array"] += 1
        return array(g, dd)

    foster = build("named:foster")
    cert = certify(foster, family="named:foster")
    paley = build("paley:29")
    open_cert = certify(paley, family="paley:29")
    assert open_cert.applications == ()
    monkeypatch.setattr(certify_module, "girth", counted_girth)
    monkeypatch.setattr(certify_module, "intersection_array", counted_array)
    assert audit(cert, foster)
    assert calls == {"girth": 1, "array": 1}
    assert audit(open_cert, paley)
    assert calls == {"girth": 1, "array": 1}


@pytest.mark.parametrize("spec", ["hamming:6:3", "named:foster"])
def test_certify_and_audit_build_few_rows(monkeypatch, spec):
    # the engine and the audit each build their own distances and read rows
    # of only a few vertices; the audit reads those of each recorded pair's
    # j and l, none per pivot or per witness (Foster's class 3 has witnesses)
    made = []

    def recorded(g):
        made.append(distances(g))
        return made[-1]

    monkeypatch.setattr(certify_module, "distances", recorded)
    g = build(spec)
    cert = certify(g, family=spec)
    assert audit(cert, g)
    assert len(made) == 2 and made[0] is not made[1]
    assert sum(len(dd._rows) for dd in made) <= 10
    ends = {v for app in cert.applications for pair in app.params.get("pairs", ()) for v in pair[:2]}
    assert set(made[1]._rows) <= ends


# ---------------------------------------------------- complement transfer


def test_complement_transfer():
    j52 = build("johnson:5:2")
    cert = certify_via_complement(j52)
    assert cert.verdict == NO_QSYM
    # sha256 of to_json() in format 3, recorded when the format changed
    digest = "86ca5887b2dd76bb351ac2856d2d5cf95bc814f71411b0b7e6b8eabcfb8f67a5"
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
    assert cert.applications[0].rule == "complement-transfer"
    assert audit(cert, j52)


def test_complement_transfer_rejects_wrong_graph():
    j52 = build("johnson:5:2")
    inner = certify(build("named:petersen"), family="named:petersen")
    cert = transfer_certificate(inner, j52)
    assert audit(cert, j52)
    # the embedded certificate is bound: auditing against another graph fails
    assert not audit(cert, build("kneser:6:2"))
    with pytest.raises(ValueError):
        transfer_certificate(inner, build("cycle:9"))


def test_complement_transfer_needs_no_qsym():
    inner = certify(build("cube:3"))  # inconclusive without the family
    with pytest.raises(ValueError):
        transfer_certificate(inner, complement(build("cube:3")))


def test_complement_transfer_audit_replays_inner():
    j52 = build("johnson:5:2")
    cert = certify_via_complement(j52)
    data = cert.to_dict()
    inner = data["applications"][0]["params"]["complement"]
    inner["applications"][0]["params"]["girth"] = 7
    result = audit(Certificate.from_dict(data), j52)
    assert not result and "embedded" in result.failure


@pytest.mark.parametrize(
    "edit",
    [lambda app: app.update(m=7), lambda app: app["params"].update(x=1)],
    ids=["class", "extra-key"],
)
def test_complement_transfer_audit_is_exact(edit):
    # a class number or an extra params key is a claim the audit must refuse
    j52 = build("johnson:5:2")
    data = certify_via_complement(j52).to_dict()
    edit(data["applications"][0])
    result = audit(Certificate.from_dict(data), j52)
    assert not result and "complement transfer" in result.failure
