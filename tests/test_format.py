"""Certificate format 4: the schema, and a seeded fuzz of the audit over
edited certificates."""

import json
import time
from random import Random

import pytest

from drgcert.certify import (
    FORMAT_VERSION,
    PARAMS_DEPTH,
    Application,
    Certificate,
    audit,
    certify,
)
from drgcert.families import build
from drgcert.graph import cartesian_product

# ------------------------------------------------------------------ schema


def _cube_dict():
    return certify(build("cube:3")).to_dict()


def test_certificate_keys():
    assert list(_cube_dict()) == [
        "format_version", "label", "n", "degree", "diameter", "verdict",
        "certified", "open_classes", "applications", "generators", "notes", "graph6",
    ]
    assert FORMAT_VERSION == 4


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
    data["label"] = 3


def _format_3_family(data):
    data["family"] = "cube:3"


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
        (_int_for_str, "label"),
        (_format_3_family, "family"),
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
    # from_json, which takes the params json has parsed as they are
    data = _cube_dict()
    data["applications"][0]["params"] = nested(PARAMS_DEPTH + 1)
    with pytest.raises(ValueError, match="Application.params is nested too deeply"):
        Certificate.from_json(json.dumps(data))


def test_from_dict_copies_the_callers_params():
    # from_json takes the params json has just parsed as they are, and
    # from_dict copies the caller's, which the caller may still edit
    data = _cube_dict()
    text = json.dumps(data)
    cert = Certificate.from_dict(data)
    data["applications"][0]["params"].clear()
    assert cert.applications[0].params
    assert cert == Certificate.from_json(text)


def test_application_from_dict_checks_schema():
    assert Application.from_dict({"rule": "r", "m": None, "params": {}}).m is None
    for bad in ({"rule": "r", "m": 1}, {"rule": 1, "m": 1, "params": {}}, [], None):
        with pytest.raises(ValueError):
            Application.from_dict(bad)


# -------------------------------------------------------------- the fuzz

FUZZ_SEED = 20261018
# (family or graph, options, edits): fewer edits where an audit replays
# more; cube:3 is HAS_QSYM, and K_3 x Shrikhande records several pairs
# per class
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
VALUE_POOL = (
    None, True, False, 0, 1, 2, 3, -1, 10**6, 1.5, "", "x", [], {}, [0], [[0, 1]], {"x": 1},
    "orbit", "all-pairs", "NO_QSYM", "HAS_QSYM", "INCONCLUSIVE", "UNKNOWN",
    "girth-at-least-5", "pivot-intersection", "distance-witness", "disjoint-automorphisms",
    list(range(8)), [1, 0, *range(2, 8)],
)
ADDED_KEYS = (
    "girth", "array", "reason", "family", "pivots", "sigma", "tau", "mode", "coverage", "x",
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


def _proof_payload(path):
    """Whether path lies in the generators, in the pivots or witnesses of
    a pair application, or in the sigma or tau of disjoint automorphisms:
    edits there that the audit accepts are still valid proofs, as the
    audit replays them in full."""
    if path[0] == "generators":
        return True
    in_params = path[:1] == ("applications",) and path[2:3] == ("params",)
    if in_params and path[3:4] in (("sigma",), ("tau",)):
        return len(path) > 4
    return in_params and path[3:4] == ("pairs",) and len(path) > 5 and path[5] >= 2


def _allowed(kind, path):
    """Whether an edit the audit accepted changes nothing it can check."""
    if path[0] in ("label", "notes"):
        return True
    return kind != "add" and _proof_payload(path)


def test_audit_fuzz():
    rng = Random(FUZZ_SEED)
    counts = {"edits": 0, "refused": 0, "rejected": 0, "accepted": 0}
    accepted_paths = set()
    t0 = time.monotonic()
    for source, options, edits in FUZZ_SOURCES:
        key = source if isinstance(source, str) else None
        g = build(key) if key else source
        original = certify(g, **options).to_dict()
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
            assert _allowed(kind, path), (key, kind, path)
    elapsed = time.monotonic() - t0
    assert counts["edits"] >= 2000, counts
    assert counts["refused"] and counts["rejected"] and counts["accepted"], counts
    print(f"audit fuzz: {counts} in {elapsed:.1f}s; accepted at {sorted(accepted_paths, key=str)}")
