"""Table reproduction and the closed-form family arrays."""

import hashlib
import importlib
import json
from collections import Counter
from importlib import resources

import pytest

from drgcert import autgroup, drg, expected, graph, tables
from drgcert.drg import intersection_array
from drgcert.expected import HAS_QSYM, GraphRow, _keyed_rows, load_tables
from drgcert.families import build
from drgcert.tables import (
    TablesReport,
    check_family,
    family_array,
    reproduce_row,
    reproduce_tables,
)

# the package re-exports the function certify under the module's name
certify_module = importlib.import_module("drgcert.certify")


def test_loaded_tables_shape():
    t = load_tables()
    assert len(t.cubic_keys) == 12
    assert len(t.small_keys) == 19
    for key in t.cubic_keys:
        assert build(t.graph(key).key).regular_degree() == 3
    for key in t.small_keys:
        assert t.graph(key).order <= 50


@pytest.mark.parametrize(
    "edit,error",
    [
        ("missing", "GraphRow has fields"),
        ("extra", "GraphRow has fields"),
        # the data file keys a row by its map key alone
        ("own key", "GraphRow 'named:petersen' is not an object without a key field"),
    ],
)
def test_graph_row_from_dict_checks_keys(edit, error):
    petersen = load_tables().graph("named:petersen")
    row = {k: v for k, v in petersen.to_dict().items() if k != "key"}
    assert _keyed_rows(GraphRow, {petersen.key: row}) == {petersen.key: petersen}
    if edit == "missing":
        del row["array"]
    elif edit == "extra":
        row["notes"] = "x"
    else:
        row["key"] = "named:heawood"
    with pytest.raises(ValueError, match=error):
        _keyed_rows(GraphRow, {petersen.key: row})


def test_family_array_formulas():
    assert str(family_array("complete", 6)) == "{5;1}"
    assert str(family_array("cycle", 6)) == "{2,1,1;1,1,2}"
    assert str(family_array("cycle", 7)) == "{2,1,1;1,1,1}"
    assert str(family_array("cycle", 3)) == "{2;1}"
    assert str(family_array("complete_bipartite", 3)) == "{3,2;1,3}"
    assert str(family_array("crown", 4)) == "{3,2,1;1,2,3}"
    assert str(family_array("johnson2", 5)) == "{6,2;1,4}"
    assert str(family_array("kneser2", 5)) == "{3,2;1,1}"
    assert str(family_array("odd", 3)) == "{3,2;1,1}"
    assert str(family_array("odd", 4)) == "{4,3,3;1,1,2}"
    assert str(family_array("hamming3", 2)) == "{4,2;1,2}"
    # each family's first value below its range
    first_invalid = {
        "complete": 1,
        "cycle": 2,
        "complete_bipartite": 1,
        "crown": 2,
        "johnson2": 3,
        "kneser2": 4,
        "odd": 1,
        "hamming3": 0,
    }
    for family, value in first_invalid.items():
        with pytest.raises(ValueError):
            family_array(family, value)
    with pytest.raises(ValueError):
        family_array("mystery", 3)


def test_family_formulas_match_built_graphs():
    # beyond the three pinned check values per family
    extra = {
        "cycle": (8, 11),
        "johnson2": (8,),
        "kneser2": (8,),
        "odd": (5,),
        "hamming3": (4,),
        "crown": (5, 7),
        "complete_bipartite": (6,),
    }
    builders = {
        "cycle": "cycle:{0}",
        "johnson2": "johnson:{0}:2",
        "kneser2": "kneser:{0}:2",
        "odd": "odd:{0}",
        "hamming3": "hamming:{0}:3",
        "crown": "crown:{0}",
        "complete_bipartite": "complete_bipartite:{0}",
    }
    for fam, values in extra.items():
        for v in values:
            got = intersection_array(build(builders[fam].format(v)))
            assert str(got) == str(family_array(fam, v)), (fam, v)


def test_every_family_row_has_one_formula():
    # a row without a formula could not be checked, a formula without a
    # row would never be
    assert load_tables().families.keys() == tables._FAMILY_FORMULAS.keys()


def test_check_family_all_pass():
    t = load_tables()
    for key in t.families:
        report = check_family(t.families[key])
        assert report.ok, (key, report.problems)
        assert len(report.checked) == 3


@pytest.fixture(scope="module")
def report():
    """One full reproduction, shared by the tests that only read it."""
    return reproduce_tables()


def test_reproduce_row_petersen():
    t = load_tables()
    row = reproduce_row(t.graph("named:petersen"))
    assert row.ok
    assert row.order_computed == 10
    assert row.array_computed == "{3,2;1,1}"
    assert row.aut_order_computed == 120
    assert row.verdict_status == "certified"


def test_reproduce_row_full():
    t = load_tables()
    row = reproduce_row(t.graph("named:heawood"))
    assert row.ok
    assert row.aut_order_computed == 336
    assert row.verdict_status == "certified"
    row = reproduce_row(t.graph("cube:3"))
    assert (row.engine_verdict, row.verdict_status) == ("HAS_QSYM", "certified")
    row = reproduce_row(t.graph("named:tutte_8_cage"))
    assert row.verdict_status == "recorded"
    assert row.engine_verdict == "INCONCLUSIVE"
    row = reproduce_row(t.graph("johnson:6:3"))
    assert row.verdict_status == "open"


def test_reproduce_row_computes_each_invariant_once(monkeypatch):
    # one distances, one array and one Aut search on the engine side, the
    # array read off vertex 0 as the group is transitive; the audit computes
    # its own distances and array and searches nothing, and sweeps every
    # vertex for the array, as Heawood's certificate records no generators
    counts = Counter()
    originals = {"distances": graph.distances, "intersection_array": drg.intersection_array}

    def counting(name):
        def wrapped(*args, **kwargs):
            roots = kwargs.get("_roots")
            counts[name if roots is None else (name, *roots)] += 1
            return originals[name](*args, **kwargs)

        return wrapped

    for module in (certify_module, drg, tables):
        for name in originals:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    searched = []
    search = autgroup._search_generators

    def counting_search(g, node_budget, dd):
        searched.append(g.n)
        return search(g, node_budget, dd)

    monkeypatch.setattr(autgroup, "_search_generators", counting_search)
    row = reproduce_row(load_tables().graph("named:heawood"))
    assert row.ok
    assert counts == {
        "distances": 2,
        ("intersection_array", 0): 1,
        ("intersection_array", *range(14)): 1,
    }
    assert searched == [14]


def test_full_reproduction_is_clean(report):
    assert report.ok
    assert len(report.cubic) == 12
    assert len(report.small) == 19
    assert len(report.families) == 8
    # every row's recomputed order and array agree with the stored strings
    for row in report.cubic + report.small:
        assert row.order_computed == row.order
        assert row.array_computed == row.array
        assert row.aut_order_computed == row.aut_order
    statuses = {r.verdict_status for r in report.cubic + report.small}
    assert statuses == {"certified", "recorded", "open"}
    # every HAS_QSYM row is proved by the engine
    assert {r.engine_verdict for r in report.cubic + report.small if r.verdict == HAS_QSYM} == {HAS_QSYM}


def test_report_json_is_pinned(report):
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    # format 4 of the certificates changed only the status of the seven
    # HAS_QSYM rows, from "knowledge-base" to "certified"
    assert digest == "c67b41ee605b27288788518f724bd1b61e08562aaa6ef437f92de1b0027a1157"


def test_reproduce_tables_which(report):
    cubic = reproduce_tables(1)
    assert cubic.ok
    assert cubic.small == () and cubic.families == ()
    assert len(cubic.cubic) == 12
    small = reproduce_tables(2)
    assert small.cubic == () and len(small.small) == 19
    assert len(small.families) == 8
    assert small == TablesReport(cubic=(), small=report.small, families=report.families)


def test_each_graph_is_reproduced_once(monkeypatch, report):
    # six graphs sit in both tables: each is reproduced once, in first-seen
    # order, and its one report is listed in both
    t = load_tables()
    shared = [k for k in t.cubic_keys if k in t.small_keys]
    assert shared == [
        "cube:3",
        "named:petersen",
        "named:heawood",
        "named:pappus",
        "named:desargues",
        "named:dodecahedron",
    ]
    calls = []
    reproduce = tables.reproduce_row

    def counting(row):
        calls.append(row.key)
        return reproduce(row)

    monkeypatch.setattr(tables, "reproduce_row", counting)
    assert reproduce_tables() == report
    assert len(calls) == 25
    assert calls == list(dict.fromkeys(t.cubic_keys + t.small_keys))


@pytest.mark.parametrize("which", [3, "1", True, 1.0, 2.0])
def test_reproduce_tables_rejects_bad_selector(which):
    # a selector naming no table must not report every row reproduced, and
    # a bool or a float is refused though it compares equal to 1 or 2
    with pytest.raises(ValueError):
        reproduce_tables(which)


def test_report_json_roundtrip(report):
    again = TablesReport.from_json(report.to_json())
    assert again == report


@pytest.mark.parametrize(
    "text,error",
    [
        ("[]", "unsupported report format None"),
        # versions that only compare equal to 1
        ('{"format_version": true, "ok": true, "cubic": [], "small": [], "families": []}',
         "unsupported report format True"),
        ('{"format_version": 1.0, "ok": true, "cubic": [], "small": [], "families": []}',
         "unsupported report format 1.0"),
        ('{"format_version": 1, "ok": true, "cubic": [], "small": []}', "TablesReport has fields"),
        ('{"format_version": 1, "cubic": [1], "small": [], "families": []}', "RowReport has fields"),
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="nested"),
    ],
)
def test_report_from_json_checks_schema(text, error):
    with pytest.raises(ValueError, match=error):
        TablesReport.from_json(text)


@pytest.mark.parametrize("version", [1.0, True])
def test_load_tables_needs_the_int_version(monkeypatch, version):
    raw = json.loads(resources.files("drgcert").joinpath("data/expected_tables.json").read_text())
    raw["format_version"] = version

    class Data:  # the package's files, with the edited data file
        def joinpath(self, name):
            return self

        def read_text(self):
            return json.dumps(raw)

    monkeypatch.setattr(expected.resources, "files", lambda package: Data())
    with pytest.raises(ValueError, match="unsupported expected_tables.json format"):
        load_tables.__wrapped__()


def test_report_text_mentions_all_rows(report):
    text = report.to_text()
    for row in report.cubic + report.small:
        assert row.label in text
    assert "all rows reproduced" in text


def test_determinism(report):
    # a second pass over the cubic rows gives the same rows
    again = reproduce_tables(1)
    assert again == TablesReport(cubic=report.cubic, small=(), families=())

