"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import drgcert
from drgcert import autgroup
from drgcert.cli import main
from drgcert.expected import load_tables
from drgcert.families import build
from drgcert.graph import Graph
from drgcert.io import to_graph6, write_graph
from drgcert.tables import reproduce_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_text(capsys):
    code, out = run(capsys, "family", "--family", "complete:4")
    assert code == 0
    assert "4 6" in out
    assert "0 1" in out


def test_family_json(capsys):
    code, out = run(capsys, "family", "--family", "named:petersen", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 10
    assert data["family"] == "named:petersen"
    assert len(data["edges"]) == 15
    assert data["graph6"] == to_graph6(build("named:petersen"))


def test_analyze_family(capsys):
    code, out = run(capsys, "analyze", "--family", "paley:17", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 17
    assert data["degree"] == 8
    assert data["array"] == "{8,4;1,4}"
    assert data["aut_order"] == 136
    assert data["distance_transitive"] is True


def test_analyze_tells_shrikhande_from_the_rook_graph(capsys):
    # the paper's closing pair: one intersection array, clique numbers 3 and 4
    for family, omega in (("named:shrikhande", 3), ("hamming:2:4", 4)):
        code, out = run(capsys, "analyze", "--family", family, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["array"] == "{6,3;1,2}", family
        assert data["clique_number"] == omega, family


def test_analyze_text_fields(capsys):
    code, out = run(capsys, "analyze", "--family", "named:petersen")
    assert code == 0
    assert "order: 10" in out
    assert "girth: 5" in out
    assert "array: {3,2;1,1}" in out


def test_analyze_file_input(tmp_path, capsys):
    g = build("cycle:6")
    path = tmp_path / "c6.g6"
    write_graph(g, str(path), "graph6")
    code, out = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["girth"] == 6

    path2 = tmp_path / "c6.edges"
    write_graph(g, str(path2), "edges")
    code, out = run(capsys, "analyze", str(path2), "--in", "edges", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_analyze_empty_graph(tmp_path, capsys):
    # the graphs on 0 and 1 vertices are trivial: neither distance-regular
    # nor distance-transitive
    for name, text, informat, order in (
        ("empty.g6", "?\n", "graph6", 0),
        ("empty.edges", "0 0\n", "edges", 0),
        ("one.g6", "@\n", "graph6", 1),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out = run(capsys, "analyze", str(path), "--in", informat)
        assert code == 0
        assert f"order: {order}" in out and "distance regular: False" in out
        assert "distance transitive: False" in out


def test_certify_text(capsys):
    code, out = run(capsys, "certify", "--family", "named:heawood")
    assert code == 0
    assert "verdict: NO_QSYM" in out
    assert out.count("\n    ") == 3  # three rule applications


def test_certify_json_roundtrip(capsys):
    from drgcert.certify import Certificate

    code, out = run(capsys, "certify", "--family", "named:icosahedron", "--format", "json")
    assert code == 0
    cert = Certificate.from_json(out)
    assert cert.verdict == "NO_QSYM"


def test_certify_relabelled_clebsch_from_graph6(tmp_path, capsys):
    # a graph6 input names no family: its HAS_QSYM verdict rests on two
    # disjoint automorphisms, which the audit checks without a search
    clebsch = build("named:clebsch")
    perm = list(range(16))
    Random(20261019).shuffle(perm)
    g = Graph(16, [(perm[u], perm[v]) for u, v in clebsch.edges])
    assert g != clebsch
    g6_path, cert_path = tmp_path / "clebsch.g6", tmp_path / "cert.json"
    g6_path.write_text(to_graph6(g) + "\n")
    code, _ = run(capsys, "certify", str(g6_path), "--format", "json", "--out", str(cert_path))
    assert code == 0
    data = json.loads(cert_path.read_text())
    assert data["verdict"] == "HAS_QSYM" and data["label"] == "graph on 16 vertices"
    assert data["applications"][-1]["rule"] == "disjoint-automorphisms"
    code, out = run(capsys, "audit", str(cert_path), str(g6_path), "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_certify_to_file(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _ = run(capsys, "certify", "--family", "paley:13", "--format", "json",
                  "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["verdict"] == "NO_QSYM"


def test_certify_mode_and_budget_flags(capsys):
    code, out = run(capsys, "certify", "--family", "paley:13", "--mode", "all-pairs",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    # every ordered pair of each class, under no group
    assert [len(a["params"]["pairs"]) for a in data["applications"]] == [78, 78]
    assert data["generators"] == []
    code, out = run(capsys, "certify", "--family", "paley:13", "--budget", "10",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "INCONCLUSIVE"
    assert any("budget" in note for note in data["notes"])


def test_certify_orbit_on_wrong_graph_is_usage_error(capsys):
    # orbit is no longer a mode: auto covers one pair per orbit on its own
    with pytest.raises(SystemExit) as err:
        main(["certify", "--family", "named:shrikhande", "--mode", "orbit"])
    assert err.value.code == 2


def test_budget_zero_is_honoured(capsys):
    code, out = run(capsys, "certify", "--family", "paley:13", "--budget", "0",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "INCONCLUSIVE" and data["open_classes"] == [1, 2]
    assert len([n for n in data["notes"] if "budget of 0" in n]) == 2
    code, _ = run(capsys, "analyze", "--family", "paley:13", "--budget", "0")
    assert code == 3


@pytest.mark.parametrize("command", ["certify", "analyze"])
def test_negative_budget_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--family", "paley:13", "--budget", "-1"])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_audit_cycle(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "certify", "--family", "named:desargues", "--format", "json",
                  "--out", str(cert_path))
    assert code == 0
    code, out = run(capsys, "audit", str(cert_path), "--family", "named:desargues")
    assert code == 0
    assert "audit ok" in out
    # embedded graph fallback
    code, out = run(capsys, "audit", str(cert_path))
    assert code == 0
    # against the wrong graph
    code, out = run(capsys, "audit", str(cert_path), "--family", "named:dodecahedron")
    assert code == 1
    assert "FAILED" in out


def test_audit_tampered_exits_one(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(capsys, "certify", "--family", "named:heawood", "--format", "json",
        "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["applications"][0]["params"]["girth"] = 5
    cert_path.write_text(json.dumps(data))
    code, out = run(capsys, "audit", str(cert_path), "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


# "family", a format-3 field, is a key format 4 refuses to load
@pytest.mark.parametrize("field", ["applications", "graph6", "family"])
def test_audit_wrongly_typed_field_is_usage_error(tmp_path, capsys, field):
    cert_path = tmp_path / "cert.json"
    run(capsys, "certify", "--family", "named:petersen", "--format", "json",
        "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data[field] = 5
    cert_path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["audit", str(cert_path)])
    assert err.value.code == 2
    assert "cannot load certificate" in capsys.readouterr().err


def test_audit_deeply_nested_certificate_is_usage_error(tmp_path):
    cert_path = tmp_path / "cert.json"
    main(["certify", "--family", "named:petersen", "--format", "json", "--out", str(cert_path)])
    data = json.loads(cert_path.read_text())
    data["notes"] = "DEEP"
    cert_path.write_text(json.dumps(data).replace('"DEEP"', "[" * 100_000 + "]" * 100_000))
    src = str(Path(drgcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "drgcert.cli", "audit", str(cert_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "cannot load certificate" in done.stderr and "Traceback" not in done.stderr


def test_tables_which_1(capsys):
    code, out = run(capsys, "tables", "--which", "1")
    assert code == 0
    assert out.count("\n  ") >= 12
    assert "all rows reproduced" in out


def test_tables_json(capsys):
    code, out = run(capsys, "tables", "--which", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["small"]) == 19


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["analyze"],  # no graph at all
        ["certify", "--family", "mystery:9"],
        ["family", "--family", "cycle:2"],
        ["analyze", "--family", "paley:13", "some_path"],
        ["frobnicate"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_missing_file_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "/nonexistent/file.g6"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv", [["certify", "--family", "named:petersen"], ["tables", "--which", "1"]]
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    # exit 1 is a mismatch, so a path that cannot be written is a usage error
    out_path = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--format", "json", "--out", str(out_path)])
    assert err.value.code == 2
    assert f"cannot write {out_path}" in capsys.readouterr().err
    assert not out_path.parent.exists()


def test_budget_exit_code(capsys):
    code = main(["analyze", "--family", "named:foster", "--budget", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err


def test_each_command_searches_aut_once(capsys, monkeypatch):
    calls = []
    search = autgroup._search_generators

    def counting(g, node_budget, dd):
        calls.append(g.n)
        return search(g, node_budget, dd)

    monkeypatch.setattr(autgroup, "_search_generators", counting)
    for argv in (
        ("analyze", "--family", "named:petersen"),
        ("certify", "--family", "named:petersen"),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [10], argv
    row = load_tables().graphs["named:petersen"]
    calls.clear()
    reproduce_row(row)
    assert calls == [10]


def test_only_analyze_sets_the_node_budget(capsys, monkeypatch):
    # analyze --budget reaches the automorphism search; certify's searches,
    # the group and then the disjoint pair of K_12, run with the default
    budgets = []
    search = autgroup._search_generators

    def recording(*args, **kwargs):
        budgets.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(autgroup, "_search_generators", recording)
    assert run(capsys, "certify", "--family", "complete:12")[0] == 0
    assert budgets == [autgroup.DEFAULT_NODE_BUDGET] * 2
    budgets.clear()
    assert run(capsys, "analyze", "--family", "named:petersen", "--budget", "500")[0] == 0
    assert budgets == [500]
