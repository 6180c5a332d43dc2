"""Certificate format 3: the schema, the family binding and its resource
bound, and a seeded fuzz of the audit over edited certificates."""

import json
import time
import tracemalloc
from random import Random

import pytest

from drgcert import families
from drgcert.certify import (
    FORMAT_VERSION,
    PARAMS_DEPTH,
    Application,
    Certificate,
    audit,
    certify,
)
from drgcert.families import build, parse_family
from drgcert.graph import Graph, cartesian_product

# ------------------------------------------------------------------ schema


def _cube_dict():
    return certify(build("cube:3"), family="cube:3").to_dict()


def test_certificate_keys():
    assert list(_cube_dict()) == [
        "format_version", "label", "n", "degree", "diameter", "family", "verdict",
        "certified", "open_classes", "applications", "generators", "notes", "graph6",
    ]
    assert FORMAT_VERSION == 3


def _unknown_key(data):
    data["kb_verdict"] = "NO_QSYM"


def _missing_key(data):
    del data["notes"]


def _string_for_tuple(data):
    data["certified"] = ""
    data["generators"] = ""


def _null_for_int(data):
    data["n"] = None


def _bool_for_int(data):
    data["diameter"] = True


def _int_for_str(data):
    data["family"] = 3


def _generator_not_a_list(data):
    data["generators"] = [7]


def _application_key(data):
    data["applications"][0]["note"] = "x"


def _application_bool_class(data):
    data["applications"][0]["m"] = False


def _application_params_list(data):
    data["applications"][0]["params"] = []


def _application_params_set(data):
    data["applications"][0]["params"] = {"x": {1, 2}}


def _application_params_deep(data):
    app = data["applications"][0]
    for _ in range(3000):
        app["params"] = {"x": app["params"]}


def _not_an_object(data):
    data["applications"][0] = "known-quantum-symmetry"


@pytest.mark.parametrize(
    "edit,field",
    [
        (_unknown_key, "kb_verdict"),
        (_missing_key, "notes"),
        (_string_for_tuple, "certified"),
        (_null_for_int, "n"),
        (_bool_for_int, "diameter"),
        (_int_for_str, "family"),
        (_generator_not_a_list, "generators"),
        (_application_key, "note"),
        (_application_bool_class, "m"),
        (_application_params_list, "params"),
        (_application_params_set, "params"),
        (_application_params_deep, "nested too deeply"),
        (_not_an_object, "Application"),
    ],
)
def test_from_dict_checks_schema(edit, field):
    # every malformed field is a ValueError naming it, never a KeyError or
    # TypeError, and never a certificate that loads
    data = _cube_dict()
    edit(data)
    with pytest.raises(ValueError, match=field):
        Certificate.from_dict(data)


def test_application_params_depth_is_bounded():
    # the bound is the same on every Python version, far below where json's
    # own recursion guard stops
    def nested(depth):
        # depth dicts and lists in all: lists and dicts in turn in one dict
        value = {}
        for i in range(depth - 2):
            value = {"x": value} if i % 2 else [value]
        return {"x": value}

    Application.from_dict({"rule": "r", "m": None, "params": nested(PARAMS_DEPTH)})
    with pytest.raises(ValueError, match="Application.params is nested too deeply"):
        Application.from_dict({"rule": "r", "m": None, "params": nested(PARAMS_DEPTH + 1)})


def test_application_from_dict_checks_schema():
    assert Application.from_dict({"rule": "r", "m": None, "params": {}}).m is None
    for bad in ({"rule": "r", "m": 1}, {"rule": 1, "m": 1, "params": {}}, [], None):
        with pytest.raises(ValueError):
            Application.from_dict(bad)


# --------------------------------------------------------- family binding


def test_engine_certificate_family_is_bound():
    # an engine certificate may name a family only when g is its graph as
    # built and the family records no quantum symmetry
    g = build("cube:3")
    data = certify(g).to_dict()
    assert data["family"] is None and audit(Certificate.from_dict(data), g)
    for key in ("cube:3", "hamming:3:2"):
        data["family"] = key
        result = audit(Certificate.from_dict(data), g)
        assert not result and "knowledge-base certificate" in result.failure, key
    petersen = build("named:petersen")
    data = certify(petersen, family="named:petersen").to_dict()
    # the Kneser and odd graph constructors build the same labelled graph
    for key in (None, "kneser:5:2", "odd:3"):
        data["family"] = key
        assert audit(Certificate.from_dict(data), petersen), key


HUGE_FAMILIES = ("paley:2000029", "cube:200000000", "paley:1000000000000037")


@pytest.mark.parametrize("key", HUGE_FAMILIES)
def test_family_binding_is_bounded_by_the_graph(key, monkeypatch):
    # nothing that grows with a family parameter runs before the family's
    # order is compared with the graph's, in the audit and in certify alike
    g = build("cube:3")
    data = _cube_dict()
    data["family"] = key
    cert = Certificate.from_dict(data)

    def unbounded(*args):
        raise AssertionError("the Paley order was checked before the size")

    monkeypatch.setattr(families, "_is_prime", unbounded)
    monkeypatch.setattr(families, "_paley_field", unbounded)
    tracemalloc.start()
    try:
        result = audit(cert, g)
        with pytest.raises(ValueError, match="8 vertices"):
            certify(g, family=key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result and "8 vertices" in result.failure
    assert peak < 1_000_000


def test_one_vertex_hamming_family_binds_in_constant_space():
    # H(d,1) is the one-vertex graph for every d, so the order comparison
    # cannot bound d: the build must not grow with it.  A d of a million
    # keeps a regression to a few megabytes, still over the bound
    g = Graph(1)
    key = "hamming:1000000:1"
    data = certify(g).to_dict()
    data["family"] = key
    tracemalloc.start()
    try:
        result = audit(Certificate.from_dict(data), g)
        cert = certify(g, family=key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result and cert.family == key and audit(cert, g)
    assert peak < 1_000_000


# -------------------------------------------------------------- the fuzz

FUZZ_SEED = 20261018
# (family or graph, options, edits): fewer edits where an audit replays
# more; a graph is certified without a family, and K_3 x Shrikhande
# records several pairs per class
FUZZ_SOURCES = (
    ("named:petersen", {}, 640),
    ("named:heawood", {}, 380),
    ("cube:3", {}, 380),
    ("johnson:6:3", {}, 380),
    ("paley:13", {"mode": "all-pairs"}, 150),
    ("hamming:3:3", {"mode": "all-pairs"}, 90),
    ("named:foster", {}, 60),
    (cartesian_product(build("complete:3"), build("named:shrikhande")), {}, 100),
)
SMALL_FAMILIES = (
    "named:petersen", "kneser:5:2", "odd:3", "johnson:5:2", "named:Petersen", "named:heawood",
    "cube:3", "hamming:3:2", "Cube:3", "cube:4", "complete:8", "johnson:6:3", "johnson:6:03",
    "paley:13", "hamming:3:3", "named:foster",
)
FAMILY_POOL = SMALL_FAMILIES + HUGE_FAMILIES + ("paley:-5",)
VALUE_POOL = (
    None, True, False, 0, 1, 2, 3, -1, 10**6, 1.5, "", "x", [], {}, [0], [[0, 1]], {"x": 1},
    "orbit", "all-pairs", "knowledge-base", "NO_QSYM", "HAS_QSYM", "INCONCLUSIVE", "UNKNOWN",
    "girth-at-least-5", "pivot-intersection", "distance-witness", "known-quantum-symmetry",
) + FAMILY_POOL
ADDED_KEYS = (
    "girth", "array", "reason", "kb_verdict", "kb_reason", "family", "pivots", "mode", "coverage",
    "x",
)


def _children(node):
    if isinstance(node, dict):
        return list(node.items())
    return list(enumerate(node)) if isinstance(node, list) else []


def _nodes(node, path=()):
    yield path, node
    for key, child in _children(node):
        yield from _nodes(child, path + (key,))


def _walk(data, rng):
    """A random path: from the root, stop with probability 0.4 at each
    node below it, else go to a random child."""
    path, node = (), data
    while _children(node) and not (path and rng.random() < 0.4):
        key, node = rng.choice(_children(node))
        path += (key,)
    return path


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _edit(data, rng):
    """One random edit of data in place; returns (kind, path)."""
    path = _walk(data, rng)
    if not path:
        path = (rng.choice(list(data)),)
    parent, last, value = _at(data, path[:-1]), path[-1], _at(data, path)
    kind = rng.choice(("pool", "swap", "type", "delete", "add", "nudge"))
    if kind == "pool":
        parent[last] = rng.choice(VALUE_POOL)
    elif kind == "swap":
        parent[last] = json.loads(json.dumps(rng.choice(list(_nodes(data)))[1]))
    elif kind == "type":
        parent[last] = rng.choice((str(value), [value], {"v": value}, None, bool(value)))
    elif kind == "delete":
        del parent[last]
    elif kind == "add":
        dicts = [(p, node) for p, node in _nodes(data) if isinstance(node, dict)]
        path, node = rng.choice(dicts)
        key = rng.choice(ADDED_KEYS)
        node[key] = rng.choice(VALUE_POOL)
        path += (key,)
    elif type(value) is int:
        parent[last] = value + rng.choice((-1, 1))
    else:
        parent[last] = rng.choice(VALUE_POOL)
    return kind, path


def _same_graph_keys(g):
    keys = set()
    for key in SMALL_FAMILIES:
        try:
            if parse_family(key).key() == key and build(key) == g:
                keys.add(key)
        except ValueError:
            pass
    return keys


def _proof_payload(path):
    """Whether path lies in the generators, or in the pivots or witnesses
    of a pair application: edits there that the audit accepts are still
    valid proofs, as the audit replays them in full."""
    if path[0] == "generators":
        return True
    in_pairs = path[:1] == ("applications",) and path[2:4] == ("params", "pairs")
    return in_pairs and len(path) > 5 and path[5] >= 2


def _allowed(original, edited, kind, path, same_graph):
    """Whether an edit the audit accepted changes nothing it can check."""
    if path[0] in ("label", "notes"):
        return True
    if path == ("family",) and kind != "delete":
        engine = original["verdict"] != "HAS_QSYM"
        return edited["family"] in same_graph or (engine and edited["family"] is None)
    return kind != "add" and _proof_payload(path)


def test_audit_fuzz():
    rng = Random(FUZZ_SEED)
    counts = {"edits": 0, "refused": 0, "rejected": 0, "accepted": 0}
    accepted_paths = set()
    t0 = time.monotonic()
    for source, options, edits in FUZZ_SOURCES:
        key = source if isinstance(source, str) else None
        g = build(key) if key else source
        original = certify(g, family=key, **options).to_dict()
        same_graph = _same_graph_keys(g) - {original["family"]}
        text = json.dumps(original)
        for _ in range(edits):
            edited = json.loads(text)
            kind, path = _edit(edited, rng)
            if edited == original:
                continue
            counts["edits"] += 1
            try:
                cert = Certificate.from_dict(edited)
            except ValueError:
                counts["refused"] += 1
                continue
            result = audit(cert, g)
            if not result:
                assert result.failure, (key, kind, path)
                counts["rejected"] += 1
                continue
            counts["accepted"] += 1
            accepted_paths.add((key, path[:4]))
            assert _allowed(original, edited, kind, path, same_graph), (key, kind, path)
    elapsed = time.monotonic() - t0
    assert counts["edits"] >= 2000, counts
    assert counts["refused"] and counts["rejected"] and counts["accepted"], counts
    print(f"audit fuzz: {counts} in {elapsed:.1f}s; accepted at {sorted(accepted_paths, key=str)}")
