"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sig-lowdiam --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Each pass of a workload runs in a fresh interpreter with the
engine cache off, so every pass does the same work; passes repeat until
``--seconds`` have been measured (at least one).  Set-up time is probed
in separate interpreters as well.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics of the traced one, with the tracing overhead; the
Chrome trace is written under ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``correct`` asserts that the program's outputs are valid: every series
and distribution is well formed, repeated passes of one seed give the
same series digest, a traced pass gives the digest of the untraced one
and restores every wrapper, spans nest and account for the wall time,
no shared-memory segment leaks, and (traced ``scale``) the worker pool
gives the serial engine's series.  Verdicts that differ from the paper
are not output errors: they are listed by row and counted in
``verdicts_wrong``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sig-lowdiam", "sig-highdiam", "scale")
PROBES = 5  # extra set-up-only interpreters per run
RUN_LIMIT_S = 165.0  # a run must end well inside 180 s
OP_DEADLINE_S = 120.0  # one operation taking longer counts as failed

END_TO_END = (
    ("wall_norm_s", "s"),
    ("cpu_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Host-speed probe.  During an untraced pass a timer interrupts the
# operations every PROBE_EVERY_S and times a fixed pure-Python loop on
# the same core, so the probes sample the host's speed uniformly over
# the pass.  ``wall_norm_s`` (``cpu_norm_s``) is the operations' wall
# (CPU) time, probe time taken out, times the mean of PROBE_NOMINAL_S
# over each probe's wall (CPU) time: the pass's time on a host where
# the probe takes PROBE_NOMINAL_S.  On a shared 2-core host the same
# loop ranges 0.075-0.148 s within a minute, and raw wall time drifts
# up to 50% over minutes, past any bound a gated metric may have; the
# raw ``wall_s`` and ``cpu_s`` are printed and kept in the run record,
# ungated.
PROBE_EVERY_S = 0.2
PROBE_ITERS = 20_000
PROBE_NOMINAL_S = 0.005

# Per-layer metric -> (unit, better, the end-to-end metric it should
# move, on which workloads).  BENCHMARK.json lists the same names.  A
# layer's self time is reported as its share of the traced operations'
# wall time (``_pct``; the seconds are printed too and kept in the run
# record), since every workload reports every layer and a layer it
# never reaches would otherwise read as a time of exactly 0 s.
PER_LAYER = {
    "generators.pct": ("%", "lower", "wall_norm_s", "scale"),
    "generators.edges": ("count", "lower", "wall_norm_s", "scale"),
    "internet.pct": ("%", "lower", "wall_norm_s", "sig-lowdiam"),
    "graph.csr.freeze_pct": ("%", "lower", "wall_norm_s, peak_rss_mb", "scale"),
    "graph.csr.bytes": ("bytes", "lower", "wall_norm_s, peak_rss_mb", "scale"),
    "graph.kernels.bfs_pct": ("%", "lower", "wall_norm_s", "sig-lowdiam, scale"),
    "graph.kernels.bfs_calls": ("count", "lower", "wall_norm_s", "sig-lowdiam, scale"),
    "routing.policy.dag_pct": ("%", "lower", "wall_norm_s", "sig-lowdiam"),
    "routing.policy.fractions_pct": ("%", "lower", "wall_norm_s", "sig-lowdiam"),
    "metrics.policy_eval_pct": ("%", "lower", "wall_norm_s", "sig-lowdiam"),
    "graph.kernels.ball_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "graph.kernels.balls": ("count", "lower", "wall_norm_s", "sig-highdiam"),
    "graph.kernels.ball_nodes": ("count", "lower", "wall_norm_s", "sig-highdiam"),
    "graph.kernels_flow.resilience_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "graph.kernels_trees.distortion_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "engine.self_pct": ("%", "lower", "wall_norm_s", "sig-lowdiam, sig-highdiam, scale"),
    "engine.centers": ("count", "lower", "wall_norm_s", "sig-lowdiam, sig-highdiam, scale"),
    "engine.pool_pct": ("%", "lower", "wall_norm_s, cpu_norm_s", "scale"),
    "engine.serial_pct": ("%", "lower", "wall_norm_s, cpu_norm_s", "scale"),
    "engine.speedup": ("x", "higher", "wall_norm_s, cpu_norm_s", "scale"),
    "runtime.shm.publish_pct": ("%", "lower", "wall_norm_s, peak_rss_mb", "scale"),
    "runtime.shm.segments": ("count", "lower", "wall_norm_s, peak_rss_mb", "scale"),
    "routing.shortest.dag_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "routing.shortest.fractions_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "hierarchy.traversal_self_pct": ("%", "lower", "wall_norm_s, peak_rss_mb", "sig-highdiam"),
    "hierarchy.entries": ("count", "lower", "wall_norm_s, peak_rss_mb", "sig-highdiam"),
    "hierarchy.links": ("count", "lower", "wall_norm_s, peak_rss_mb", "sig-highdiam"),
    "graph.flow.cover_pct": ("%", "lower", "wall_norm_s", "sig-highdiam"),
    "analysis.classify_pct": ("%", "lower", "verdicts_wrong", "all"),
    "analysis.min_margin": ("ratio", "higher", "verdicts_wrong", "all"),
    "analysis.verdicts_wrong": ("count", "lower", "verdicts_wrong", "all"),
    "bench.op_self_pct": ("%", "lower", "wall_norm_s", "all"),
    "trace.overhead_frac": ("ratio", "lower", "none", "all"),
}


def pct_name(seconds_name: str) -> str:
    """``generators.s`` -> ``generators.pct``; ``engine.self_s`` -> ``engine.self_pct``."""
    return re.sub(r"[._]s$", lambda m: m.group(0)[0] + "pct", seconds_name)



# ----------------------------------------------------------------------
# Child side: one pass in a fresh interpreter
# ----------------------------------------------------------------------
class OpTimeout(Exception):
    """An operation ran past its deadline."""


def probe_loop() -> tuple:
    """Run the host-speed probe once; returns (wall s, CPU s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc = 0
    table = {}
    for i in range(PROBE_ITERS):
        k = i % 503
        table[k] = table.get(k, 0) + i
        acc += i * i % 7
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Alarm:
    """SIGALRM handler: the per-operation deadline, and (``sampling``)
    the host-speed probe every PROBE_EVERY_S."""

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.deadline = None
        self.probes = []  # (wall s, CPU s)

    def arm(self):
        self.deadline = time.monotonic() + OP_DEADLINE_S
        first = PROBE_EVERY_S if self.sampling else OP_DEADLINE_S
        signal.setitimer(signal.ITIMER_REAL, first, first)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.deadline = None

    def __call__(self, _signum, _frame):
        if self.deadline is None:
            return
        if time.monotonic() >= self.deadline:
            raise OpTimeout(f"operation exceeded {OP_DEADLINE_S:.0f}s")
        if self.sampling:
            self.probes.append(probe_loop())


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def child_probe() -> dict:
    import workloads  # noqa: F401  (the imports are what set-up pays)

    return {"ready": time.monotonic()}


def child_pass(workload: str, seed: int, traced: bool, toy: bool) -> dict:
    import workloads
    from repro.runtime import shm

    rows = workloads.workload_rows(workload, toy=toy)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    alarm = Alarm(sampling=not traced)
    signal.signal(signal.SIGALRM, alarm)
    ready = time.monotonic()
    probe_loop()  # warm-up
    cpu0 = _cpu_s()
    results = []
    for row in rows:
        alarm.arm()
        try:
            results.append(
                workloads.run_row(row, seed, tracer.span if tracer else None)
            )
        finally:
            alarm.disarm()
    cpu = _cpu_s() - cpu0 - sum(c for _w, c in alarm.probes)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    problems = []
    for row, result in zip(rows, results):
        if result.ok:
            problems += [
                f"{row.name}: {p}"
                for p in workloads.check_payload(row.kind, result.series)
            ]
    if shm.active_segments():
        problems.append(f"shared-memory segments leaked: {shm.active_segments()}")

    out = {
        "ready": ready,
        "cpu_s": cpu,
        "probes": alarm.probes,
        "peak_rss_mb": rss_kb / 1024.0,
        "digest": workloads.series_digest(rows, results),
        "rows": [
            {
                "name": r.name,
                "ok": r.ok,
                "wall_s": r.wall_s,
                "verdict": r.verdict,
                "expected": r.expected,
                "wrong": r.wrong,
                "margin": r.margin,
                "error": r.error,
            }
            for r in results
        ],
    }
    if tracer is not None:
        problems += _baselines(rows, results, seed, tracer)
        out["restored"] = tracer.restore()
        if not out["restored"]:
            problems.append("a traced entry point was not restored")
        if tracer.bad_spans:
            problems.append(f"{tracer.bad_spans} spans with children exceeding them")
        layers = tracer.layer_metrics()
        layers["engine.pool_s"] = tracer.counts.get("engine.pool_ns", 0) / 1e9
        layers["engine.serial_s"] = tracer.counts.get("engine.serial_ns", 0) / 1e9
        layers["engine.speedup"] = (
            layers["engine.serial_s"] / layers["engine.pool_s"]
            if layers["engine.pool_s"] > 0
            else 0.0
        )
        out["layers"] = layers
        out["op_self_sum_s"] = sum(tracer.root_self_ns["op"].values()) / 1e9
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_chrome(
            os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"),
            {"workload": workload, "seed": seed},
        )
    out["problems"] = problems
    return out


def _baselines(rows, results, seed, tracer) -> list:
    """Reference runs outside the timed operations (traced pass only).

    Rows that ran on a worker pool are recomputed with ``workers=0``:
    the series must be bitwise equal, and the serial wall time is the
    ``engine.serial_s`` baseline for ``engine.speedup``.
    """
    import workloads
    from repro.engine import MetricEngine

    problems = []
    for row, result in zip(rows, results):
        if not (row.workers > 0 and result.ok):
            continue
        _n, series = result.series
        with tracer.span("baseline", f"{row.name} serial"):
            engine = MetricEngine(workers=0, use_cache=False)
            serial = engine.compute(
                result.graph,
                workloads.signature_requests_for(row, seed, result.graph, None),
            )
        if serial != series:
            problems.append(f"{row.name}: pool series differ from serial series")
    return problems


# ----------------------------------------------------------------------
# Parent side: spawn passes, aggregate, print
# ----------------------------------------------------------------------
def _spawn(args: list, env: dict, timeout: float):
    """Run one child; returns (parsed result or None, spawn time, error)."""
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, start, f"child timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        return None, start, f"child exited {proc.returncode}: " + " | ".join(tail)
    lines = stdout.decode().strip().splitlines()
    return json.loads(lines[-1]), start, None


def _child_env(root: str) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool):
    """All passes of one run; returns the aggregated record."""
    root = os.getcwd()
    env = _child_env(root)
    run_start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)] + (["--toy"] if toy else [])
    errors = []  # passes that never reported
    problems = []

    setups = []
    if not trace:
        for _ in range(PROBES):
            probe, start, err = _spawn(["--child", "probe"] + common, env, 60)
            if probe is None:
                problems.append(err)
            else:
                setups.append(probe["ready"] - start)

    passes = []

    def run_pass(traced: bool) -> bool:
        budget = RUN_LIMIT_S - (time.monotonic() - run_start)
        args = ["--child", "pass", "--trace", str(int(traced))] + common
        result, start, err = _spawn(args, env, budget)
        if result is None:
            errors.append(err)
            return False
        result.update(traced=traced, setup_s=result["ready"] - start)
        result["pass_s"] = time.monotonic() - start
        passes.append(result)
        return True

    if trace:
        if run_pass(False):
            run_pass(True)
    else:
        while run_pass(False):
            measured = sum(p["pass_s"] for p in passes)
            remaining = RUN_LIMIT_S - (time.monotonic() - run_start)
            if measured >= seconds or passes[-1]["pass_s"] * 1.3 > remaining:
                break
    return aggregate(workload, seed, trace, toy, passes, setups, errors, problems)


def _wall(result: dict) -> float:
    """Wall time of a pass's operations (set-up and probes excluded)."""
    return sum(r["wall_s"] for r in result["rows"]) - sum(
        w for w, _c in result["probes"]
    )


def _normalised(result: dict) -> tuple:
    """(wall_norm_s, cpu_norm_s) of a pass: its wall and CPU time times
    the probes' mean speed relative to PROBE_NOMINAL_S."""
    probes = result["probes"] or [(PROBE_NOMINAL_S, PROBE_NOMINAL_S)]
    wall_speed = statistics.fmean(PROBE_NOMINAL_S / w for w, _c in probes)
    cpu_speed = statistics.fmean(PROBE_NOMINAL_S / max(c, 1e-6) for _w, c in probes)
    return _wall(result) * wall_speed, result["cpu_s"] * cpu_speed


def aggregate(workload, seed, trace, toy, passes, setups, errors, problems) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = problems + errors
    for p in passes:
        problems += p["problems"]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed gave {len(digests)} different digests")

    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(1 for p in passes for r in p["rows"] if not r["ok"])
    if errors:  # a pass that never reported counts all its rows failed
        from workloads import workload_rows

        rows_per_pass = len(workload_rows(workload, toy=toy))
        attempted += rows_per_pass * len(errors)
        failed += rows_per_pass * len(errors)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "pass_walls": [_wall(p) for p in passes],
        "attempted": attempted,
        "failed": failed,
        "digest": passes[0]["digest"] if passes else None,
        "rows": passes[0]["rows"] if passes else [],
        "problems": problems,
    }
    wall = [_wall(p) for p in untraced]
    if untraced:
        record["probes"] = sum(len(p["probes"]) for p in untraced)
        record["raw"] = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        }
    if not trace and untraced:
        normalised = [_normalised(p) for p in untraced]
        record["metrics"] = {
            "wall_norm_s": statistics.median(w for w, _c in normalised),
            "cpu_norm_s": statistics.median(c for _w, c in normalised),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in untraced]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
    if trace and untraced and traced:
        import tracing

        layers = dict(traced[0]["layers"])
        op_total = traced[0]["op_self_sum_s"]
        timed = list(tracing.LAYER_TIME_METRICS.values()) + [
            "engine.pool_s",
            "engine.serial_s",
        ]
        record["layer_seconds"] = {name: layers.pop(name) for name in timed}
        for name, value in record["layer_seconds"].items():
            layers[pct_name(name)] = 100.0 * value / op_total if op_total else 0.0
        base = wall[0]
        traced_wall = _wall(traced[0])
        overhead = (traced_wall - base) / base
        covered = traced[0]["op_self_sum_s"]
        if abs(covered - base) > abs(traced_wall - base) + 0.02 * base:
            problems.append(
                f"layer self times {covered:.3f}s do not account for wall "
                f"{base:.3f}s within the tracing overhead"
            )
        layers["trace.overhead_frac"] = overhead
        margins = [r["margin"] for r in traced[0]["rows"] if r["ok"]]
        layers["analysis.min_margin"] = min(margins) if margins else 0.0
        layers["analysis.verdicts_wrong"] = float(
            sum(r["wrong"] for r in traced[0]["rows"])
        )
        record["metrics"] = {name: layers[name] for name in PER_LAYER}
    record["correct"] = not problems and "metrics" in record
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  passes {record['passes']}"
    )
    print(f"{'row':24s} {'verdict':9s} {'paper':9s} {'margin':>7s} {'wall_s':>8s}")
    for r in record["rows"]:
        margin = f"{r['margin']:.3f}" if r["margin"] is not None else "-"
        verdict = r["verdict"] if r["ok"] else "FAILED"
        print(
            f"{r['name']:24s} {verdict:9s} {r['expected']:9s} {margin:>7s} "
            f"{r['wall_s']:8.3f}"
        )
    for r in record["rows"]:
        if not r["ok"]:
            print(f"FAILED {r['name']}: {r['error']}")
        elif r["wrong"]:
            print(
                f"VERDICT WRONG {r['name']}: expected {r['expected']}, "
                f"got {r['verdict']}"
            )
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"series_sha256 {record['digest']}")
    units = dict(END_TO_END)
    units.update({name: spec[0] for name, spec in PER_LAYER.items()})
    for name, value in record.get("raw", {}).items():
        print(f"{name:34s} {value:16.6f} s       (raw, not gated)")
    if "probes" in record:
        print(f"{'host_speed_probes':34s} {record['probes']:16d} count")
    for name, value in record.get("layer_seconds", {}).items():
        print(f"{name:34s} {value:16.6f} s       as {pct_name(name)} below")
    metrics = record.get("metrics", {})
    for name, value in metrics.items():
        target = ""
        if name in PER_LAYER:
            target = f"  -> {PER_LAYER[name][2]} on {PER_LAYER[name][3]}"
        print(f"{name:34s} {value:16.6f} {units[name]:6s}{target}")
    print(f"{'ops':34s} {record['attempted']:16d} count")
    print(f"{'ops_failed':34s} {record['failed']:16d} count")
    wrong = sum(1 for r in record["rows"] if r["wrong"])
    print(f"{'verdicts_wrong':34s} {wrong:16d} count")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("pass", "probe"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child == "probe":
        print(json.dumps(child_probe()))
        return 0
    if args.child == "pass":
        print(json.dumps(child_pass(args.workload, args.seed, bool(args.trace), args.toy)))
        return 0

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "error: run from the root of a source checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # for counting rows of a lost pass
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
