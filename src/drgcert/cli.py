"""Command-line front end.

Subcommands: family, analyze, certify, tables, audit.  Exit codes are
part of the contract: 0 success, 1 verification mismatch (tables rows or
a failed audit), 2 usage error, 3 analyze's node budget exhausted; certify
exits 0 with an INCONCLUSIVE certificate and a note when its pair-search
budget runs out.
"""

from __future__ import annotations

import argparse
import json
import sys

from .autgroup import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    automorphism_group,
    is_distance_transitive,
)
from .certify import DEFAULT_SEARCH_BUDGET, Certificate, _Invariants, audit, certify
from .families import build, label_for, parse_family
from .graph import DisconnectedGraphError, Graph, clique_number
from .io import from_graph6, read_graph, to_edge_text, to_graph6
from .tables import reproduce_tables

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="graph file; omit when using --family")
    p.add_argument("--family", metavar="SPEC", help='family spec such as "hamming:2:4"')
    p.add_argument(
        "--in",
        dest="informat",
        choices=("graph6", "edges"),
        default="graph6",
        help="file format for a path argument (default graph6)",
    )


def _load_graph(parser: argparse.ArgumentParser, args) -> tuple[Graph, str | None]:
    """The graph plus its family spec string when one was given."""
    if args.family and args.path:
        parser.error("give either --family or a path, not both")
    if args.family:
        try:
            spec = parse_family(args.family)
            return build(spec), args.family
        except ValueError as exc:
            parser.error(str(exc))
    if not args.path:
        parser.error("a graph is required: pass a path or --family")
    try:
        return read_graph(args.path, args.informat), None
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {args.path}: {exc}")


def _emit(args, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as f:
            f.write(text)
    except OSError as exc:
        print(f"drgcert: error: cannot write {args.out}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _cmd_family(parser, args) -> int:
    try:
        spec = parse_family(args.family)
        g = build(spec)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {
            "family": spec.key(),
            "label": spec.label(),
            "n": g.n,
            "edges": [list(e) for e in g.sorted_edges()],
            "graph6": to_graph6(g),
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, to_edge_text(g, comment=spec.label()))
    return EXIT_OK


def _cmd_analyze(parser, args) -> int:
    g, family = _load_graph(parser, args)
    degrees = g.degrees()
    degree = g.regular_degree()
    inv = _Invariants(g)
    dd, connected = inv.dd, inv.dd.connected
    try:
        aut = automorphism_group(g, args.budget, dd)
    except SearchBudgetExceeded:
        print("automorphism search exceeded the node budget", file=sys.stderr)
        return EXIT_BUDGET
    inv.cover(aut.generators)  # the search checked each generator edge by edge
    arr = inv.array() if connected else None
    info = {
        "label": label_for(family) if family else None,
        "family": family,
        "order": g.n,
        "degree": [min(degrees), max(degrees)] if degree is None and g.n else degree,
        "girth": inv.girth(),
        "clique_number": clique_number(g, _roots=inv.roots),
        "connected": connected,
        "diameter": dd.diameter if connected else None,
        "array": str(arr) if arr else None,
        "distance_regular": bool(arr),
        "aut_order": aut.order,
        "distance_transitive": is_distance_transitive(g, aut=aut, dd=dd),
    }
    if args.format == "json":
        _emit(args, json.dumps(info, indent=2))
    else:
        lines = []
        for key, value in info.items():
            if value is None:
                continue
            name = key.replace("_", " ")
            if isinstance(value, list):
                value = f"{value[0]}..{value[1]}"
            lines.append(f"{name}: {value}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_certify(parser, args) -> int:
    g, family = _load_graph(parser, args)
    try:
        label = label_for(family) if family else None
        cert = certify(g, label=label, mode=args.mode, search_budget=args.budget)
    except (ValueError, DisconnectedGraphError) as exc:
        parser.error(str(exc))
    _emit(args, cert.to_json() if args.format == "json" else cert.to_text())
    return EXIT_OK


def _cmd_tables(parser, args) -> int:
    report = reproduce_tables(args.which)
    _emit(args, report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_audit(parser, args) -> int:
    try:
        with open(args.certificate) as f:
            cert = Certificate.from_json(f.read())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load certificate: {exc}")
    if args.family or args.path:
        g, _ = _load_graph(parser, args)
    else:
        # no graph supplied: replay against the one the certificate names
        try:
            g = from_graph6(cert.graph6)
        except ValueError as exc:
            parser.error(f"cannot load certificate: {exc}")
    result = audit(cert, g)
    if args.format == "json":
        _emit(args, json.dumps({"ok": result.ok, "failure": result.failure}))
    elif result.ok:
        _emit(args, f"audit ok: {cert.label} ({cert.verdict})")
    else:
        _emit(args, f"audit FAILED: {result.failure}")
    return EXIT_OK if result.ok else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drgcert",
        description="quantum symmetry certificates for distance-regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="construct a graph from a family spec")
    p.add_argument("--family", metavar="SPEC", required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser("analyze", help="basic invariants of a graph")
    _add_graph_input(p)
    p.add_argument(
        "--budget",
        type=nonnegative_int,
        default=DEFAULT_NODE_BUDGET,
        metavar="N",
        help="automorphism search node budget",
    )
    _add_output_flags(p)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("certify", help="run the quantum symmetry certifier")
    _add_graph_input(p)
    p.add_argument("--mode", choices=("auto", "all-pairs"), default="auto")
    p.add_argument(
        "--budget",
        type=nonnegative_int,
        default=DEFAULT_SEARCH_BUDGET,
        metavar="N",
        help="distance lookups allowed per class",
    )
    _add_output_flags(p)
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("--which", type=int, choices=(1, 2), default=None)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_tables)

    p = sub.add_parser("audit", help="re-verify a certificate")
    p.add_argument("certificate", help="certificate file (json)")
    _add_graph_input(p)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_audit)

    args = parser.parse_args(argv)
    return args.run(parser, args)


if __name__ == "__main__":
    sys.exit(main())
