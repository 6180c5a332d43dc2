"""Rule engine and audit: chains, pair coverage, tampering, transfers."""

import hashlib
import importlib
import json
from dataclasses import fields, replace
from random import Random

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
from drgcert.autgroup import is_automorphism
from drgcert.families import build, label_for
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
from oracles import are_isomorphic, automorphism_group_reference, oracle_inputs

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
    cert = certify(g, **kw)
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
    cert = certify(g)
    assert cert.verdict == INCONCLUSIVE
    assert set(cert.certified) >= {1, 2}
    assert audit(cert, g)


def test_hoffman_singleton_partial():
    g = build("named:hoffman_singleton")
    cert = certify(g)
    assert 1 in cert.certified
    assert cert.verdict in (NO_QSYM, INCONCLUSIVE)
    assert audit(cert, g)


def test_johnson_6_3_reports_open_question():
    g = build("johnson:6:3")
    cert = certify(g)
    assert load_tables().graph("johnson:6:3").verdict == UNKNOWN
    assert cert.verdict == INCONCLUSIVE
    assert 3 in cert.certified  # antipodal class has a unique far vertex
    assert audit(cert, g)


# --------------------------------------------------------- verdict logic


def _support(perm):
    return {v for v, w in enumerate(perm) if v != w}


def test_disjoint_automorphisms_prove_quantum_symmetry():
    # the one source of HAS_QSYM: two non-identity automorphisms with
    # disjoint supports, recorded last, after the class applications
    for key in ("hamming:2:4", "complete:4", "complete_bipartite:3", "cube:3"):
        g = build(key)
        cert = certify(g)
        assert cert.verdict == HAS_QSYM and cert.open_classes, key
        app = cert.applications[-1]
        assert (app.rule, app.m, sorted(app.params)) == ("disjoint-automorphisms", None, ["sigma", "tau"])
        sigma, tau = app.params["sigma"], app.params["tau"]
        assert is_automorphism(g, sigma) and is_automorphism(g, tau), key
        assert _support(sigma) and _support(tau), key
        assert not _support(sigma) & _support(tau), key
        assert all(a.m is not None for a in cert.applications[:-1]), key
        assert audit(cert, g), key


def test_cube_without_family_stays_open():
    # class 1 stays open; the verdict rests on the disjoint automorphisms
    g = build("cube:3")
    cert = certify(g)
    assert cert.verdict == HAS_QSYM
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
    assert cert.verdict == HAS_QSYM
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
    # the soundness gate: every graph with quantum symmetry ends HAS_QSYM
    # with a class left open, in both modes, and no oracle input both has
    # two disjoint automorphisms and gets every class certified
    rows = [row.key for row in load_tables().graphs.values() if row.verdict == HAS_QSYM]
    assert rows
    for key in dict.fromkeys(QUANTUM_GRAPHS + rows):
        g = build(key)
        for mode in ("auto", "all-pairs"):
            cert = certify(g, mode=mode)
            assert cert.verdict == HAS_QSYM and cert.open_classes, (key, mode)
            assert audit(cert, g), (key, mode)
    paired = classical = 0
    for label, g in oracle_inputs():
        pair = autgroup.disjoint_automorphisms(g, autgroup.automorphism_group(g).generators)
        if pair is not None:
            sigma, tau = pair
            assert is_automorphism(g, sigma) and is_automorphism(g, tau), label
            assert _support(sigma) and _support(tau) and not _support(sigma) & _support(tau), label
            paired += 1
        if not distances(g).connected:
            continue
        cert = certify(g)
        assert cert.open_classes or pair is None, label
        assert (cert.verdict == HAS_QSYM) == (pair is not None), label
        classical += cert.verdict == NO_QSYM
    assert paired and classical


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
    auto = certify(g)
    allp = certify(g, mode="all-pairs")
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
    with_search = certify(build("hamming:3:3"))
    assert with_search.generators
    # a chain of whole-class rules needs no coverage argument
    no_search = certify(build("named:heawood"))
    assert no_search.generators == ()


def test_search_budget_exhaustion_is_honest():
    g = build("paley:13")
    cert = certify(g, search_budget=10)
    assert cert.verdict == INCONCLUSIVE
    assert cert.open_classes == (1, 2)
    assert any("budget" in note for note in cert.notes)
    assert audit(cert, g)


def test_node_budget_exhaustion_falls_back_to_all_pairs(monkeypatch):
    # an automorphism search over its node budget leaves no generators, so
    # every ordered pair of each class is covered, as in mode "all-pairs"
    g = build("hamming:3:3")
    all_pairs = certify(g, mode="all-pairs")
    monkeypatch.setattr(certify_module, "DEFAULT_NODE_BUDGET", 1)
    cert = certify(g)
    assert cert.notes == ("automorphism search budget exceeded; all-pairs coverage",)
    assert cert.generators == ()
    assert cert.applications == all_pairs.applications
    assert audit(cert, g)


def test_node_budget_exhaustion_records_no_pair(monkeypatch):
    # K_12 has quantum symmetry, but past the node budget no pair is sought
    g = build("complete:12")
    monkeypatch.setattr(certify_module, "DEFAULT_NODE_BUDGET", 1)
    for mode, why in (("auto", "all-pairs coverage"), ("all-pairs", "no disjoint automorphisms recorded")):
        cert = certify(g, mode=mode)
        assert cert.verdict == INCONCLUSIVE and cert.applications == (), mode
        assert cert.notes == (f"automorphism search budget exceeded; {why}",), mode
        assert audit(cert, g), mode


@pytest.mark.parametrize(
    "name,value",
    [("search_budget", -5), ("search_budget", True), ("search_budget", 2.5)],
)
def test_certify_refuses_invalid_budgets(name, value):
    # the pair search divides what is left of a budget by a set's cost, so
    # a budget is a count: a non-negative int, never a bool or a float
    with pytest.raises(ValueError, match=name):
        certify(build("named:petersen"), **{name: value})


# ---------------------------------------------------------- serialization


def test_json_roundtrip():
    cert = certify(build("named:desargues"))
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert "\n" not in cert.to_json()


def test_text_rendering_mentions_everything():
    cert = certify(build("named:coxeter"))
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


# sha256 of to_json() in format 4 for each format-1 digest above, with
# the label certify --family writes, recorded once when format 4 dropped
# "family": each NO_QSYM and INCONCLUSIVE dict was checked to be the
# format-3 one less "family", and the HAS_QSYM ones (cube:3, complete:12,
# hamming:3:4, clebsch) now rest on a disjoint-automorphisms application
PINNED_DIGESTS = {
    "214ff176d123087a8a0b5dce81b600accccc4beee9dc49220c56bfea2dbe75ee":
        "c8a72021537b7d63e4edecd1ed7cf793abf54169414ab4e28b3a872ba39e505e",
    "321acf33616283208413e1c20a9f97918e2aa814ee53ae8b513c1154893b258d":
        "54e91dfb4d941ab8c399ae7cc5efcda77702c3488c93efe41ef17e81cac36fcb",
    "322701f8f2acd01eac83dfd77cf56a91747d51919b6fba683000ee144826380b":
        "1754f957e82e32ee551df7939d1209a252f118165933f44588881ee62d0d4192",
    "6c5cebcca70adb546d0ecfe3ce3fe336e8db97f716409887b69524e96bca8e6e":
        "d6ca8ba93b5dcc79884a4962b5538b61be19ef1e321607f08873e64e07f5a1b4",
    "86128820f455a9559b74f82e0d77c909558df7871ce5a270ded41158612b060a":
        "fc42c0d8156c1a5115d2b8908dd8e7a39a35c98ee71e4d9ea10ca95c9d3cab0e",
    "c09f6a065c901af7660d48f8df49996866774bc752fcea4fb2448120bd2131f7":
        "7529c9696d38e1f4aacb654bcdc6122edc8a4931bfd457a17df301b3e29728a5",
    "892029519a3a9661e50daca6d369def27ca20c2d5b0fc6f74f07232f6797c8bc":
        "1af54288065a1c29c0e0c00194d1a1adf99692c5e35a1c33df2b12e1261567aa",
    "51741f016a385b58832bf379b1abe2ce7aa157df1d61b25238c596a66d040d05":
        "4abe3053ffd3ad7293d4756a503b5b7f906cd350257a54316efa1141ee61bd33",
    "405106fbb68788d413206e9abae37cd4882076bebe72b0b602c2d5cbdd32a2b7":
        "f787bff84219ab4f7316e04b747a24b2564767c7dfa84f7ebf5e1c2ee43c1421",
    "b42948bf236ec3b4fab6343f22a92966d3e4ec6c8a59748be8eab83924760600":
        "cac527765467988dcdf1c530018328117fba3c760048a7adfb9076ec2508a7cc",
    "00ae93e77bc01a5d2dc7f18834112b1b682a42c198b07731a8814e20002f91d0":
        "d46ba3ea5da67f1be03e7d605d63eb200283ad0b47cd3750f4217447563c244b",
    "a19017bf74c06c4c4c577e9a87d056aabd8d8ba669c7034354616f5e662532d4":
        "8e56540d1f8259a5137b64db61ed1d4cb01c7a4aa5c0cb06078c48f97231b376",
    "fe74f4a19c9b1656b6df9b42bb93589741d0f7f18ed77f9db110f7416e06c601":
        "317a43d4abbe2f1d4b257f4c1c52f44664789f4c735e421993cc73b824395604",
    "4c91c0ff83161e33908726494e7d30ea638248e65780806f8f99b14c4451f6ba":
        "4f6b1963e85be44492f14a59fc8228e5e4431b608b2d71ca8993ecc230c1fe2c",
    "4c2bb4bf1c091b16c505c48e5895fb8b3f2e2bc904d64d0559ce15e91d189429":
        "f0bf4b908cbe595cc29592783d8e302d9c43df520c643a4bfbd50ffe3ac4ade8",
    "bcd5047350a31384f6e49acb765fe36aa4a7b9c8cda25a3f94cf3ce73e285796":
        "d4c506e90f071e753a3d5c00bec71d5e911b3684726dfea0712c1bd7e6db96b7",
    "495148e12e01b9c7e2b94f56c8776be296cd84051b302dffbe1f99683a147647":
        "db0e445c80aff1fa5aa5ca81a18dde553412c7c97deea8cd4e1f598b908ca116",
    "4b512718921349994fc11cee6754fec46e241016ef63456b2b1719915f69974f":
        "af982113e1d73b93af99ad97129fd81d9c31973b3a2fa6ba275ed7ea4de9555e",
    "1015e44d3f5ce835190e5918715b0ed8933be0ffcbb026373a751f339a22f12b":
        "c5012a00c805deb64d1cd91511c079c656c2dead41ca8484cfd42a3b2dc546f8",
}


# sha256 of to_json() for the digests above whose certificates' generators
# come from the search that returns to the first path: a subsequence of
# the generators of the reference search, which the digests above pin
FIRST_PATH_DIGESTS = {
    "c8a72021537b7d63e4edecd1ed7cf793abf54169414ab4e28b3a872ba39e505e":
        "f034d90fa82d88b49a1d536bf6e2655ca81ca4719a29cf507c416b9aba2023e0",
    "1754f957e82e32ee551df7939d1209a252f118165933f44588881ee62d0d4192":
        "77c625dc93e14611981632fac868ab18e94e577ed85efdedafc3c5d0a86ca1bd",
    "fc42c0d8156c1a5115d2b8908dd8e7a39a35c98ee71e4d9ea10ca95c9d3cab0e":
        "5c0f53006388967467766ee7f42a41e4d4140312a81e6c6304a3b0149cab08f0",
    "1af54288065a1c29c0e0c00194d1a1adf99692c5e35a1c33df2b12e1261567aa":
        "710e9ccc275a990448d475fdba94686f56675416dad9814c225e11dfda90a2f1",
}


def _reference_invariants(g):
    """g's _Invariants with the group of the reference search."""
    inv = _Invariants(g)
    inv.group = lambda: automorphism_group_reference(g)
    return inv


def _sha256(cert) -> str:
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


@pytest.mark.parametrize("key,options,digest", CERTIFICATE_DIGESTS)
def test_certificate_bytes_pinned(key, options, digest):
    g, pinned = build(key), PINNED_DIGESTS[digest]
    label = label_for(key)
    assert _sha256(certify(g, label=label, **options)) == FIRST_PATH_DIGESTS.get(pinned, pinned)
    assert _sha256(certify(_reference_invariants(g), label=label, **options)) == pinned


def test_format_version_checked():
    cert = certify(build("complete:3"))
    data = cert.to_dict()
    data["format_version"] = 99
    with pytest.raises(ValueError):
        Certificate.from_dict(data)


# ----------------------------------------------------------------- audit


def test_audit_rejects_wrong_graph():
    cert = certify(build("named:petersen"))
    assert not audit(cert, build("named:heawood"))
    # same order, different edges
    other = build("cycle:10")
    result = audit(cert, other)
    assert not result and "graph6" in result.failure


def test_audit_rejects_tampered_pivot():
    g = build("hamming:2:3")
    cert = certify(g)
    data = cert.to_dict()
    app = data["applications"][1]
    assert app["rule"] == "pivot-intersection"
    del app["params"]["pairs"][0][2][1:]
    assert not audit(Certificate.from_dict(data), g)


def test_audit_rejects_wrong_array_variant():
    g = build("named:heawood")
    cert = certify(g)
    data = cert.to_dict()
    app = data["applications"][2]
    assert app["rule"] == "array-step"
    app["params"]["variant"] = "b"
    result = audit(Certificate.from_dict(data), g)
    assert not result and "variant" in result.failure


def test_audit_rejects_missing_class():
    g = build("named:desargues")
    cert = certify(g)
    data = cert.to_dict()
    data["applications"] = data["applications"][:-1]
    data["certified"] = [1, 2, 3, 4]
    result = audit(Certificate.from_dict(data), g)
    assert not result


def test_audit_rejects_forged_witness():
    from oracles import floyd_warshall

    g = build("paley:17")
    cert = certify(g)
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
    cert = certify(g)
    data = cert.to_dict()
    data["applications"].append(data["applications"][0])
    result = audit(Certificate.from_dict(data), g)
    assert not result and "twice" in result.failure


def test_audit_rejects_counterfeit_has_verdict():
    # the HAS_QSYM certificate of K_{3,3} moved to the octahedron, which
    # matches it in order and diameter but not as a graph: its disjoint
    # automorphisms and the other proofs are not the octahedron's
    cert = certify(build("complete_bipartite:3"))
    assert cert.verdict == HAS_QSYM
    other = build("johnson:4:2")
    data = cert.to_dict()
    data["graph6"] = to_graph6(other)
    result = audit(Certificate.from_dict(data), other)
    assert not result and "generator is not an automorphism" in result.failure
    # the pair alone
    data.update(generators=[], applications=data["applications"][-1:], certified=[], open_classes=[1, 2])
    result = audit(Certificate.from_dict(data), other)
    assert not result and "sigma is not an automorphism" in result.failure


def test_audit_rejects_no_qsym_on_quantum_graph():
    # transplanted rule applications cannot force NO_QSYM onto the rook's
    # graph: replayed rules fail on the target graph
    rook = build("hamming:2:4")
    donor = certify(build("named:shrikhande"))
    data = donor.to_dict()
    data["graph6"] = to_graph6(rook)
    data["label"] = "counterfeit"
    result = audit(Certificate.from_dict(data), rook)
    assert not result


def test_audit_rejects_tampered_generators():
    cert = certify(build("hamming:3:3"))
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
    data = certify(g).to_dict()
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
    data = certify(g).to_dict()
    data["generators"] = [["a"] * 27]
    result = audit(Certificate.from_dict(data), g)
    assert not result and "generator" in result.failure


def test_application_params_not_trusted():
    # recorded scalars must match recomputed values
    g = build("named:petersen")
    cert = certify(g)
    data = cert.to_dict()
    data["applications"][0]["params"]["girth"] = 6
    result = audit(Certificate.from_dict(data), g)
    assert not result and "girth" in result.failure


def test_audit_has_qsym_checks_class_lists_and_generators():
    g = build("cube:3")
    cert = certify(g)
    assert cert.verdict == HAS_QSYM and audit(cert, g)
    assert (cert.certified, cert.open_classes) == ((3,), (1, 2))
    for edit in (
        {"certified": [1, 2, 3], "open_classes": []},
        {"certified": [1]},
        {"open_classes": [1]},
        {"open_classes": [True, 2]},
        {"generators": [list(range(8))]},
        {"verdict": INCONCLUSIVE},
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
    data = certify(g).to_dict()
    assert key in data["applications"][index]["params"]
    data["applications"][index]["params"][key] = value
    assert not audit(Certificate.from_dict(data), g)
    data["applications"][index]["params"] = {}
    assert not audit(Certificate.from_dict(data), g)


def test_to_dict_shares_nothing_with_certificate():
    g = build("named:line_petersen")
    cert = certify(g)
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
    # application 1 of cube:3 is its disjoint-automorphisms one
    ("cube:3", ("applications", 1, "m"), 2),
    ("cube:3", ("applications", 1, "params", "reason"), 2),
    ("cube:3", ("applications", 1, "params", "tau"), {}),
    ("cube:3", ("applications", 1, "params", "family"), "made up"),
    ("cube:3", ("verdict",), "UNKNOWN"),
    ("cube:3", ("applications", 0, "rule"), "made up"),
    ("cube:3", ("diameter",), 6),
    ("cube:3", ("graph6",), "{3,2;1,2}"),
    ("cube:3", ("notes",), {"note": "made up"}),
    ("johnson:6:3", ("verdict",), "HAS_QSYM"),
    ("johnson:6:3", ("verdict",), "maybe"),
    # the format-3 family key, now an extra params key the audit refuses
    ("named:petersen", ("applications", 0, "params", "family"), "maybe"),
    ("cube:3", ("applications", 1, "params", "family"), "cube:4"),
    ("cube:3", ("verdict",), "Cube:3"),
    ("cube:3", ("applications", 1, "rule"), "complete:8"),
    ("cube:3", ("applications", 1, "params", "sigma"), None),
    ("named:petersen", ("applications", 1, "params", "family"), "named:Petersen"),
    ("named:petersen", ("applications", 0, "rule"), "johnson:5:2"),
    ("named:petersen", ("applications", 1, "rule"), "complete:10"),
    ("named:petersen", ("n",), 11),
    ("cube:3", ("n",), 7),
    ("named:petersen", ("certified",), [1]),
    ("named:petersen", ("certified",), [2, 1]),
    ("cube:3", ("certified",), [1, 2, 3]),
    ("named:petersen", ("open_classes",), [2]),
    ("johnson:6:3", ("open_classes",), []),
    ("cube:3", ("open_classes",), [1, 2, 3]),
    ("named:petersen", ("applications", 1, "rule"), "disjoint-automorphisms"),
]


@pytest.mark.parametrize("key,path,value", FIELD_TAMPERS)
def test_audit_checks_degree_mode_generators_and_fact(key, path, value):
    # the cases edit every field but the label, which is free text
    assert {path[0] for _, path, _ in FIELD_TAMPERS} == {
        f.name for f in fields(Certificate) if f.name != "label"
    }
    g = build(key)
    data = certify(g).to_dict()
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
    certs = [(build(key), certify(build(key))) for key in keys]
    assert {cert.verdict for _, cert in certs} == {HAS_QSYM}
    g = build("hamming:3:3")
    certs.append((g, certify(g)))

    def no_search(g, node_budget):
        raise AssertionError("the audit searched for automorphisms")

    monkeypatch.setattr(autgroup, "_search_generators", no_search)
    for g, cert in certs:
        result = audit(cert, g)
        assert result, (cert.label, result.failure)


RELABEL_SEED = 20261019


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabelled_quantum_rows_certify():
    # a HAS_QSYM verdict needs no family: a relabelled copy of each table
    # row with quantum symmetry is certified and audited as the row is
    rng = Random(RELABEL_SEED)
    rows = [row.key for row in load_tables().graphs.values() if row.verdict == HAS_QSYM]
    assert len(rows) == 7
    changed = 0
    for key in rows:
        g = relabelled(build(key), rng)
        assert are_isomorphic(g, build(key)), key
        changed += g != build(key)  # K_4 is every relabelling of itself
        cert = certify(g)
        assert cert.verdict == HAS_QSYM, key
        assert cert.applications[-1].rule == "disjoint-automorphisms", key
        assert audit(cert, g), key
    assert changed == len(rows) - 1


def _sigma_not_an_automorphism(app, g):
    # sigma with a moved vertex and a fixed one swapped, when that breaks an
    # edge, else with one image repeated
    sigma = app["params"]["sigma"]
    i = next(i for i in range(g.n) if sigma[i] != i)
    for j in range(g.n):
        swapped = list(sigma)
        swapped[i], swapped[j] = sigma[j], sigma[i]
        if not is_automorphism(g, swapped):
            break
    else:
        swapped[i] = swapped[i - 1]
    sigma[:] = swapped


def _tau_identity(app, g):
    app["params"]["tau"] = list(range(g.n))


def _supports_meet(app, g):
    app["params"]["tau"] = app["params"]["sigma"]


def _wrong_length(app, g):
    app["params"]["sigma"].append(g.n)


def _class_set(app, g):
    app["m"] = 1


def _family_key(app, g):
    # the edit perfbench's tampered twin of a HAS_QSYM certificate makes
    app["params"]["family"] = "cube:4"


def _bools_for_vertices(app, g):
    app["params"]["tau"] = [bool(v) for v in app["params"]["tau"]]


@pytest.mark.parametrize(
    "tamper",
    [
        _sigma_not_an_automorphism,
        _tau_identity,
        _supports_meet,
        _wrong_length,
        _class_set,
        _family_key,
        _bools_for_vertices,
    ],
)
@pytest.mark.parametrize("key", ["cube:3", "complete:12", "named:clebsch"])
def test_audit_checks_disjoint_automorphisms(key, tamper):
    g = build(key)
    data = certify(g).to_dict()
    app = data["applications"][-1]
    assert app["rule"] == "disjoint-automorphisms"
    tamper(app, g)
    result = audit(Certificate.from_dict(data), g)
    assert isinstance(result, certify_module.AuditResult)
    assert not result and "disjoint-automorphisms" in result.failure


def test_audit_places_disjoint_automorphisms_last():
    g = build("cube:3")
    data = certify(g).to_dict()
    first, pair = data["applications"]
    for apps, certified, open_classes in (
        ([pair, first], [3], [1, 2]),
        ([pair, pair, first], [3], [1, 2]),
    ):
        data.update(applications=apps, certified=certified, open_classes=open_classes)
        result = audit(Certificate.from_dict(data), g)
        assert not result and "last application" in result.failure


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
        data = certify(g).to_dict()
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
    by_inv = certify(inv)
    assert by_inv.to_json() == certify(g).to_json()
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
    data = certify(g).to_dict()
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
    data = certify(g, mode="all-pairs").to_dict()
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
    cert = certify(g, **options)
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
    cert = certify(foster)
    paley = build("paley:29")
    open_cert = certify(paley)
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
    cert = certify(g)
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
    # sha256 of to_json() in format 4, recorded when the format changed
    # (the format-3 JSON less both "family" keys)
    digest = "5503c283f5a63c31bcfe1bd6df0b042c399b36f2f55415c5f6be8bd0a9b68adc"
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
    assert cert.applications[0].rule == "complement-transfer"
    assert audit(cert, j52)


def test_complement_transfer_rejects_wrong_graph():
    j52 = build("johnson:5:2")
    inner = certify(build("named:petersen"))
    cert = transfer_certificate(inner, j52)
    assert audit(cert, j52)
    # the embedded certificate is bound: auditing against another graph fails
    assert not audit(cert, build("kneser:6:2"))
    with pytest.raises(ValueError):
        transfer_certificate(inner, build("cycle:9"))


def test_complement_transfer_needs_no_qsym():
    inner = certify(build("cube:3"))  # HAS_QSYM
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


def test_complement_transfers_nest_one_level():
    # the J(5,2) transfer audits, but no transfer may embed it in turn
    j52 = build("johnson:5:2")
    cert = certify_via_complement(j52)
    assert audit(cert, j52)
    petersen = complement(j52)
    with pytest.raises(ValueError, match="itself a complement transfer"):
        transfer_certificate(cert, petersen)
    data = certify(petersen).to_dict()
    assert data["verdict"] == NO_QSYM
    nested = {"rule": "complement-transfer", "m": None, "params": {"complement": cert.to_dict()}}
    data["applications"] = [nested]
    data["generators"] = []
    result = audit(Certificate.from_dict(data), petersen)
    assert not result
    assert result.failure.endswith("embedded certificate is itself a complement transfer")
