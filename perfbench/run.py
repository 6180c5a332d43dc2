"""drgcert benchmark: closed-loop batches of CLI commands from one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed set of graphs
pushed through the user-facing commands (``analyze``, ``certify``,
``audit``, ``tables``) by calling ``drgcert.cli.main`` in-process, one
command at a time, in a single thread.  The seed only permutes the order
of the graphs within a pass and picks which field each tampered twin
alters.  Passes repeat until ``--seconds`` is used up.  End-to-end timings
are scaled to a fixed host speed by a calibration loop timed between the
commands (see CAL_REF_S).

Every output is checked against perfbench/reference.json; an operation
that raises, exits with code 3, or gives a wrong answer counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics from a separate traced pass (see spans.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")

SETUP_PROBES = 5
COLD_STARTS = 12
COLD_START_ARGS = ["-m", "drgcert.cli", "certify", "--family", "named:petersen", "--format", "json"]
CHILD_TIMEOUT_S = 120

# The host's speed changes in steps of up to 1.8x that last from seconds to
# minutes, more than the bound of a timing.  A fixed pure-Python loop, timed
# between the commands, follows those steps (over 15 s windows its times
# correlate 0.97 with those of certify and analyze), so every end-to-end
# timing is divided by the run's mean loop time over CAL_REF_S.  It then
# reads in seconds of a host that runs the loop in CAL_REF_S: the loop's
# median on the 2-vCPU Xeon VM of the baselines in README.md, at a quiet time.
CAL_LOOPS = 500_000
CAL_REF_S = 0.042
# A cold start is mostly interpreter start-up and the import of numpy, which
# the loop follows less well, so cold_start_s is scaled the same way by a
# reference child, started after each cold start, that only imports numpy.
# START_REF_S is that child's time on the same VM when the loop takes CAL_REF_S.
START_REF_ARGS = ["-c", "import numpy"]
START_REF_S = 0.134


@dataclass(frozen=True)
class Workload:
    graphs: tuple  # (family spec, certify mode) pairs
    analyze: bool = False
    tables: bool = False


SPARSE = ("named:foster", "named:biggs_smith", "named:hoffman_singleton", "odd:5", "hamming:4:3")
DENSE = ("paley:89", "paley:101", "paley:109", "kneser:10:2", "johnson:10:2")
ALL_PAIRS = ("hamming:4:3", "named:foster", "named:biggs_smith", "paley:17", "hamming:3:3")
KNOWN_QSYM = ("hamming:3:4", "crown:10", "complete:12", "complete_bipartite:8", "cube:5", "named:clebsch")

# why each workload stresses what it does: BENCHMARK.json and README.md
WORKLOADS = {
    "orbit_sparse": Workload(tuple((s, "auto") for s in SPARSE), analyze=True, tables=True),
    "orbit_dense": Workload(tuple((s, "auto") for s in DENSE), analyze=True),
    "allpairs_kb": Workload(
        tuple((s, "all-pairs") for s in ALL_PAIRS) + tuple((s, "auto") for s in KNOWN_QSYM)
    ),
}

# per_layer metrics read from the tracer: (metric, layer, field)
LAYER_METRICS = [
    (f"{layer}_s", layer, "self_s")
    for layer in (
        "autgroup.automorphism_group",
        "autgroup.schreier_sims_order",
        "autgroup.is_distance_transitive",
        "autgroup.pair_orbit",
        "autgroup.are_isomorphic",
        "autgroup.is_automorphism",
        "certify.certify",
        "certify.audit",
        "certify.to_json",
        "certify.from_json",
        "drg.intersection_array",
        "graph.distances",
        "graph.girth",
        "graph.clique_number",
        "graph.common_neighbors",
        "io.to_graph6",
        "tables.reproduce_row",
        "tables.check_family",
        "families.build",
        "cli.main",
    )
] + [
    (f"{layer}.calls", layer, "calls")
    for layer in (
        "autgroup.automorphism_group",
        "autgroup.schreier_sims_order",
        "autgroup.are_isomorphic",
        "drg.intersection_array",
        "graph.distances",
        "graph.girth",
        "io.to_graph6",
        "families.build",
    )
]
COUNTERS = ("autgroup.generators", "certify.budget_exhausted", "certify.classes_open", "certify.cert_bytes")
KINDS = ("analyze", "certify", "audit", "tables")
# every per_layer metric of BENCHMARK.json, in its order
PER_LAYER = (
    [metric for metric, _, _ in LAYER_METRICS]
    + list(COUNTERS)
    + [f"cli.{kind}_s" for kind in KINDS]
    + ["cli.import_s", "trace_overhead_s", "certified_classes", "twins_rejected"]
)


@dataclass
class Op:
    kind: str
    label: str
    seconds: float
    error: str | None  # None when the output passed every check
    output: str  # what the command produced: stdout, or the certificate file
    record: tuple  # this operation's share of the result digest


class Bench:
    def __init__(self, workload: str, seed: int, reference: dict, workdir: str):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.ref = reference
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.order_rng = random.Random(f"order:{seed}")
        self.cal: list[float] = []  # seconds of each calibration loop

    def calibrate(self, after_s: float) -> None:
        """Time the calibration loop once per second of the work just done,
        at least once, so that its samples spread over the run like the work."""
        for _ in range(1 + int(after_s)):
            start = perf_counter()
            total = 0
            for i in range(CAL_LOOPS):
                total += i * i % 7
            self.cal.append(perf_counter() - start)

    # ------------------------------------------------------------ helpers

    def _count(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")

    def _cli(self, argv):
        """Run one command in-process; (exit code, seconds, stdout, stderr)."""
        import drgcert.cli  # looked up at call time, so the tracer's wrapper is used

        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = drgcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the operation fails; the run goes on
            code = None
            err.write(f"raised {exc!r}")
        return code, perf_counter() - start, out.getvalue(), err.getvalue()

    def _cert_path(self, outdir, spec, mode):
        return os.path.join(outdir, f"{spec.replace(':', '_')}@{mode}.json")

    # -------------------------------------------------------------- passes

    def graph_specs(self) -> list[str]:
        specs = [spec for spec, _ in self.workload.graphs]
        if self.workload.tables:
            specs += list(self.ref["table_rows"])
        return list(dict.fromkeys(specs))

    def run_pass(self, outdir: str) -> list[Op]:
        os.makedirs(outdir, exist_ok=True)
        # start each pass from a collected heap, as a fresh CLI process would
        gc.collect()
        ops = []

        def run(op: Op) -> None:
            ops.append(op)
            self.calibrate(op.seconds)

        graphs = list(self.workload.graphs)
        self.order_rng.shuffle(graphs)
        for spec, mode in graphs:
            if self.workload.analyze:
                run(self._analyze(spec))
            path = self._cert_path(outdir, spec, mode)
            run(self._certify(spec, mode, path))
            run(self._audit(spec, mode, path))
        if self.workload.tables:
            run(self._tables())
        return ops

    def _analyze(self, spec):
        code, secs, out, err = self._cli(["analyze", "--family", spec, "--format", "json"])
        error, record = _exit_error(code, err), None
        if error is None:
            info = json.loads(out)
            want = self.ref["graphs"][spec]["aut_order"]
            record = ("analyze", spec, info["aut_order"], info["array"])
            if info["aut_order"] != want:
                error = f"|Aut| is {info['aut_order']}, literature gives {want}"
            elif not info["distance_regular"]:
                error = "not reported distance-regular"
        return Op("analyze", spec, secs, error, out, record)

    def _certify(self, spec, mode, path):
        argv = ["certify", "--family", spec, "--mode", mode, "--format", "json", "--out", path]
        code, secs, _, err = self._cli(argv)
        error, record, text = _exit_error(code, err), None, ""
        if error is None:
            with open(path) as f:
                text = f.read()
            cert = json.loads(text)
            rules = [[app["m"], app["rule"]] for app in cert["applications"]]
            record = ("certify", spec, mode, cert["verdict"], cert["certified"], rules)
            truth = self.ref["graphs"][spec]["truth"]
            floor = self.ref["certified_floor"][f"{spec}@{mode}"]
            error = _verdict_error(cert["verdict"], truth)
            if error is None and len(cert["certified"]) < floor:
                error = f"certified {len(cert['certified'])} classes, fewer than {floor}"
        return Op("certify", f"{spec}@{mode}", secs, error, text, record)

    def _audit(self, spec, mode, path):
        code, secs, out, err = self._cli(["audit", path, "--family", spec, "--format", "json"])
        error = None
        if code == 1:
            error = f"honest certificate rejected: {out.strip()}"
        elif code != 0:
            error = _exit_error(code, err)
        return Op("audit", f"{spec}@{mode}", secs, error, out, ("audit", spec, mode, code))

    def _tables(self):
        code, secs, out, err = self._cli(["tables", "--format", "json"])
        error, record = _exit_error(code, err), None
        if error is None:
            report = json.loads(out)
            rows = report["cubic"] + report["small"]
            record = ("tables", report["ok"], sorted(
                (r["key"], r["engine_verdict"], r["verdict_status"], r["aut_order_computed"]) for r in rows
            ))
            for r in rows:
                want = self.ref["table_rows"][r["key"]]
                error = error or _verdict_error(r["engine_verdict"], want["truth"])
                if r["aut_order_computed"] not in (None, want["aut_order"]):
                    error = error or f"{r['key']}: |Aut| {r['aut_order_computed']}, table gives {want['aut_order']}"
        return Op("tables", "tables", secs, error, out, record)

    # ------------------------------------------------------ tampered twins

    def audit_twins(self, ops: list[Op]) -> int:
        """Audit one altered copy of every certificate; returns how many the
        auditor rejected.  An accepted twin counts as a failed operation."""
        rng = random.Random(f"twins:{self.seed}")
        rejected = 0
        for op in sorted((o for o in ops if o.kind == "certify" and o.output), key=lambda o: o.label):
            spec, mode = op.label.split("@")
            field, twin = _tamper(json.loads(op.output), spec, rng, self.ref["has_qsym_swaps"])
            path = os.path.join(self.workdir, "twin.json")
            with open(path, "w") as f:
                f.write(json.dumps(twin, separators=(",", ":")))
            code, _, out, err = self._cli(["audit", path, "--family", spec, "--format", "json"])
            error = None
            if code == 0:
                error = f"twin with altered {field} accepted"
            elif code != 1:
                error = _exit_error(code, err) or f"exit code {code}"
            else:
                rejected += 1
            self._count(f"twin {op.label} ({field})", error)
        return rejected

    # ------------------------------------------------------- fresh processes

    def _child(self, args, label):
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._count(label, "timed out")
            return None, None
        secs = perf_counter() - start
        if proc.returncode != 0:
            self._count(label, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return None, None
        return secs, proc.stdout

    def fresh_processes(self, probes: int, cold_starts: int, samples: dict) -> None:
        """Time set-up probes and cold starts, each in a fresh interpreter and
        alternating, until samples["setup_s"] holds `probes` and
        samples["cold_start_s"] `cold_starts` (import_s comes with setup_s,
        start_ref_s with cold_start_s)."""
        while len(samples["setup_s"]) < probes or len(samples["cold_start_s"]) < cold_starts:
            if len(samples["setup_s"]) < probes:
                secs, out = self._child([os.path.join(HERE, "probe.py"), *self.graph_specs()], "setup probe")
                if out is None:
                    return
                self._count("setup probe", None)
                probe = json.loads(out)
                samples["setup_s"].append(probe["setup_s"])
                samples["import_s"].append(probe["import_s"])
                self.calibrate(secs)
            if len(samples["cold_start_s"]) < cold_starts:
                secs, out = self._child(COLD_START_ARGS, "cold start")
                if out is None:
                    return
                verdict = json.loads(out)["verdict"]
                truth = self.ref["graphs"]["named:petersen"]["truth"]
                self._count("cold start", _verdict_error(verdict, truth))
                samples["cold_start_s"].append(secs)
                ref_secs, out = self._child(START_REF_ARGS, "start reference")
                if out is None:
                    return
                samples["start_ref_s"].append(ref_secs)
                self.calibrate(secs + ref_secs)


def _exit_error(code, err):
    if code == 0:
        return None
    if code == 3:
        return "budget exhausted (exit 3)"
    return f"exit code {code}: {err.strip()[-200:]}"


def _verdict_error(verdict, truth):
    if {verdict, truth} == {"HAS_QSYM", "NO_QSYM"}:
        return f"verdict {verdict} contradicts the recorded {truth}"
    return None


def _tamper(cert: dict, spec: str, rng: random.Random, swaps: dict):
    """Alter one field the auditor checks, chosen by rng; (field, twin)."""
    twin = json.loads(json.dumps(cert))
    if cert["verdict"] == "HAS_QSYM":
        twin["applications"][0]["params"]["family"] = rng.choice(swaps[spec])
        return "family", twin
    sites = {"certified": [None]}
    for app in twin["applications"]:
        params, rule = app["params"], app["rule"]
        if rule == "girth-at-least-5":
            sites.setdefault("girth", []).append(params)
        elif rule == "array-step":
            sites.setdefault("array", []).append(params)
        elif params.get("coverage") == "orbit":
            j, l = params["pair"]
            if params.get("pivots"):
                sites.setdefault("pivot", []).append((params["pivots"], l))
            if params.get("witnesses"):
                sites.setdefault("witness", []).append((params["witnesses"], j))
        elif params.get("coverage") == "all-pairs":
            for j, l, *payload in params["assignments"]:
                for item in payload:
                    if item and isinstance(item[0], int):
                        sites.setdefault("pivot", []).append((item, l))
                    elif item:
                        sites.setdefault("witness", []).append((item, j))
    field = rng.choice(sorted(sites))
    site = rng.choice(sites[field])
    if field == "certified":
        certified = twin["certified"]
        if certified:
            certified.remove(rng.choice(certified))
        else:
            certified.append(1)
    elif field == "girth":
        site["girth"] += 1
    elif field == "array":
        site[rng.choice(["b0", "b1", "c2", "c_m"])] += 1
    elif field == "pivot":
        # l is at distance 0 from itself, a class that is never certified
        pivots, l = site
        pivots[rng.randrange(len(pivots))] = l
    else:
        # j is never a rival of its own pair, so the rival set no longer matches
        witnesses, j = site
        witnesses[rng.randrange(len(witnesses))][0] = j
    return field, twin


def _digest(ops: list[Op], rejected_twins: int) -> str:
    records = sorted(json.dumps(op.record) for op in ops)
    records.append(json.dumps(["twins rejected", rejected_twins]))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]


def _by_kind(ops: list[Op]) -> dict:
    totals = {}
    for op in ops:
        totals[op.kind] = totals.get(op.kind, 0.0) + op.seconds
    return totals


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _certified_classes(ops: list[Op]) -> int:
    return sum(len(op.record[4]) for op in ops if op.kind == "certify" and op.record)


# ----------------------------------------------------------------- modes


def _mean_pass(passes: list[list[Op]]) -> dict:
    """Seconds per pass for each command kind, averaged over the passes."""
    totals = {}
    for ops in passes:
        for op in ops:
            totals[op.kind] = totals.get(op.kind, 0.0) + op.seconds / len(passes)
    return totals


def measure(bench: Bench, seconds: float, trace: bool):
    """Run the workload; returns (metrics, report lines, result digest)."""
    fresh = {"setup_s": [], "import_s": [], "cold_start_s": [], "start_ref_s": []}
    cold_starts = 0 if trace else COLD_STARTS
    from drgcert.families import build

    for spec in bench.graph_specs():
        build(spec)

    passes, rounds = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        passes.append(bench.run_pass(os.path.join(bench.workdir, "pass")))
        if trace:
            break
        # fresh-interpreter samples are spread over the run: after each pass,
        # as many as the share of the run used so far
        share = min(1.0, (perf_counter() - start) / seconds)
        bench.fresh_processes(round(SETUP_PROBES * share), round(cold_starts * share), fresh)
        rounds.append(perf_counter() - round_start)
        # start another pass when it is expected to end nearer to the budget
        # than stopping now does
        if perf_counter() - start + _median(rounds) / 2 > seconds:
            break
    bench.fresh_processes(SETUP_PROBES, cold_starts, fresh)
    for ops in passes:
        for op in ops:
            bench._count(f"{op.kind} {op.label}", op.error)
    records = [sorted(json.dumps(op.record) for op in ops) for ops in passes]
    if any(r != records[0] for r in records):
        bench._count("repeat", "passes of one run gave different results")

    if trace:
        return measure_traced(bench, seconds - (perf_counter() - start), passes[0], fresh["import_s"])

    # means, not medians: a host that is slower for a share of the run makes
    # the commands and the calibration loops slower for the same share
    slowdown = _mean(bench.cal) / CAL_REF_S
    setups, cold, refs = fresh["setup_s"], fresh["cold_start_s"], fresh["start_ref_s"]
    start_slowdown = _mean(refs) / START_REF_S if refs else slowdown
    kinds = _mean_pass(passes)
    pass_raw = sum(kinds.values())
    rejected = bench.audit_twins(passes[-1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "pass_s": (pass_raw / slowdown, "s"),
        "cold_start_s": (_mean(cold) / start_slowdown, "s"),
        "setup_s": (_median(setups) / slowdown, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"host slowdown {slowdown:.4f}  (mean of {len(bench.cal)} calibration loops, {_mean(bench.cal):.4f} s, over {CAL_REF_S} s)",
        "timings below: scaled by 1/slowdown, and in brackets as measured",
        f"setup_s       {metrics['setup_s'][0]:.4f} s ({_median(setups):.4f})  median of {len(setups)} fresh interpreters: import + first build of {len(bench.graph_specs())} graphs",
        f"pass_s        {metrics['pass_s'][0]:.4f} s ({pass_raw:.4f})  mean of {len(passes)} passes",
    ]
    for kind in KINDS:
        if kind in kinds:
            lines.append(f"  {kind + '_s':12s}{kinds[kind] / slowdown:.4f} s ({kinds[kind]:.4f})")
        else:
            lines.append(f"  {kind + '_s':12s}n/a (this workload does not run {kind})")
    lines.append(f"cold_start_s  {metrics['cold_start_s'][0]:.4f} s ({_mean(cold):.4f})  mean of {len(cold)}: python {' '.join(COLD_START_ARGS)}")
    lines.append(f"  scaled by start-up slowdown {start_slowdown:.4f}: mean of {len(refs)} reference children, {_mean(refs):.4f} s, over {START_REF_S} s")
    lines.append(f"peak_rss_mb   {rss_mb:.1f} MB")
    lines.append(f"certified_classes {_certified_classes(passes[-1])} count")
    lines.append(f"twins rejected    {rejected} of {sum(o.kind == 'certify' for o in passes[-1])}")
    return metrics, lines, _digest(passes[-1], rejected)


def measure_traced(bench: Bench, seconds: float, plain: list[Op], imports):
    """Traced passes after one untraced pass: layer metrics, overhead and the
    self-checks (identical outputs, root spans covering the command times)."""
    sys.path.insert(0, HERE)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    runs = []
    start = perf_counter()
    try:
        while True:
            tracer.reset()
            ops = bench.run_pass(os.path.join(bench.workdir, "traced"))
            runs.append((ops, tracer.summary(), dict(tracer.counts), tracer.roots()))
            if perf_counter() - start + sum(o.seconds for o in ops) > seconds:
                break
    finally:
        tracer.uninstall()

    plain_out = {(op.kind, op.label): op.output for op in plain}
    samples: dict[str, list] = {}
    for ops, layers, counts, roots in runs:
        for op in ops:
            same = plain_out.get((op.kind, op.label)) == op.output
            bench._count(f"traced {op.kind} {op.label}", None if same else "output differs from the untraced pass")
        if len(roots) != len(ops) or any(name != "cli.main" for name, _ in roots):
            bench._count("root spans", f"{len(roots)} root spans for {len(ops)} commands")
            continue
        for kind, total in _by_kind(ops).items():
            covered = sum(secs for (_, secs), op in zip(roots, ops) if op.kind == kind)
            if covered < 0.97 * total:
                bench._count(f"root spans {kind}", f"cover {covered:.4f} of {total:.4f} s")
            samples.setdefault(f"cli.{kind}_s", []).append(covered)
        for metric, layer, field in LAYER_METRICS:
            samples.setdefault(metric, []).append(layers.get(layer, {}).get(field, 0))
        for name in COUNTERS:
            samples.setdefault(name, []).append(counts.get(name, 0))
        samples.setdefault("trace_overhead_s", []).append(
            sum(op.seconds for op in ops) - sum(op.seconds for op in plain)
        )
    rejected = bench.audit_twins(plain)

    samples["cli.import_s"] = imports
    samples["certified_classes"] = [_certified_classes(plain)]
    samples["twins_rejected"] = [rejected]
    metrics = {}
    for metric in PER_LAYER:
        unit = "s" if metric.endswith("_s") else ("bytes" if metric.endswith("_bytes") else "count")
        metrics[metric] = (_median(samples.get(metric, [0])), unit)

    lines = [f"traced passes {len(runs)}; untraced pass {sum(o.seconds for o in plain):.4f} s"]
    lines.append("per-layer metrics (median over traced passes):")
    for metric, (value, unit) in metrics.items():
        lines.append(f"  {metric:36s} {value:14.4f} {unit}")
    layers = runs[0][1]
    lines.append("every traced layer, first traced pass (self s, calls):")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:36s} {row['self_s']:9.4f} {row['calls']:8d}")
    return metrics, lines, _digest(plain, rejected)


def _interrupt(signum, frame):
    # unwind on SIGTERM as on Ctrl-C: subprocess.run kills its child and the
    # work directory is removed; SystemExit would be taken for a CLI exit code
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drgcert", "cli.py")):
        print(f"no drgcert sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import drgcert

    if os.path.dirname(os.path.abspath(drgcert.__file__)) != os.path.join(SRC, "drgcert"):
        print(f"imported drgcert from {drgcert.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        bench = Bench(args.workload, args.seed, reference, workdir)
        metrics, lines, digest = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))

    recorded = reference["digests"].get(args.workload)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  failed_share  {len(bench.failures)}/{bench.attempted}")
    for failure in bench.failures[:20]:
        print(f"    FAILED {failure}")
    match = "matches the recorded digest" if digest == recorded else f"recorded {recorded}"
    print(f"  result_digest {digest} ({match})")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
