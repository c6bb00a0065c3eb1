"""The benchmark's own tests, at toy size (a few hundred nodes, one
center).  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def toy_run(workload, trace=False, seed=1):
    return run.measure(workload, seed, seconds=0, trace=trace, toy=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_runs_end_to_end(workload):
    record = toy_run(workload)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    assert record["attempted"] == len(workloads.workload_rows(workload, toy=True))
    assert set(record["metrics"]) == {name for name, _unit in run.END_TO_END}
    assert all(value > 0 for value in record["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_keeps_outputs():
    record = toy_run("scale", trace=True)
    # correct covers: traced digest == untraced digest, wrappers
    # restored, spans nested and accounting for the wall time, and the
    # pool series equal to the serial baseline.
    assert record["correct"], record["problems"]
    assert list(record["metrics"]) == list(run.PER_LAYER)
    assert record["metrics"]["runtime.shm.segments"] == 1
    assert record["layer_seconds"]["engine.serial_s"] > 0
    assert record["metrics"]["engine.pool_pct"] > 0


def test_planted_wrong_expectation_raises_verdicts_wrong():
    rows = workloads.workload_rows("sig-highdiam", toy=True)[:2]
    honest = [workloads.run_row(row, 1) for row in rows]
    i = next(i for i, result in enumerate(honest) if not result.wrong)
    rows[i].expected = "!" + honest[i].verdict  # now any verdict but its own
    again = [workloads.run_row(row, 1) for row in rows]
    assert sum(r.wrong for r in again) == sum(r.wrong for r in honest) + 1
    assert again[i].wrong and again[i].ok


def test_planted_exception_counts_in_ops_failed(monkeypatch):
    def broken(_seed):
        raise RuntimeError("planted")

    rows = workloads.workload_rows("sig-highdiam", toy=True)
    rows.insert(1, workloads.Row("Broken", "links", broken, "strict"))
    monkeypatch.setattr(workloads, "workload_rows", lambda *_a, **_k: rows)
    result = run.child_pass("sig-highdiam", 1, traced=False, toy=True)
    result.update(traced=False, setup_s=0.1)
    record = run.aggregate("sig-highdiam", 1, False, True, [result], [0.1], [], [])
    assert record["attempted"] == len(rows)
    assert record["failed"] == 1
    broken_row = next(r for r in record["rows"] if r["name"] == "Broken")
    assert broken_row["error"] == "RuntimeError: planted"


def test_host_speed_probes_sample_untraced_operations_only():
    for sampling in (True, False):
        alarm = run.Alarm(sampling)
        signal_before = run.signal.signal(run.signal.SIGALRM, alarm)
        try:
            alarm.arm()
            end = run.time.monotonic() + 3 * run.PROBE_EVERY_S
            while run.time.monotonic() < end:
                sum(range(1000))
        finally:
            alarm.disarm()
            run.signal.signal(run.signal.SIGALRM, signal_before)
        assert (len(alarm.probes) >= 2) == sampling
        assert all(w > 0 and c > 0 for w, c in alarm.probes)


def test_normalised_times_scale_with_probe_speed():
    nominal = run.PROBE_NOMINAL_S
    rows = [{"wall_s": 6.0}, {"wall_s": 4.5}]
    # Probes at half the nominal speed: the host ran slow, so the
    # pass's time at nominal speed is half its measured time.
    slow = {"rows": rows, "cpu_s": 9.0, "probes": [(2 * nominal, 2 * nominal)] * 5}
    wall = 10.5 - 5 * 2 * nominal
    assert run._wall(slow) == pytest.approx(wall)
    assert run._normalised(slow) == pytest.approx((wall / 2, 4.5))
    fast = dict(slow, probes=[(nominal / 2, nominal / 2)] * 2)
    assert run._normalised(fast)[1] == pytest.approx(18.0)


def test_a_lost_pass_counts_all_its_rows_failed():
    record = run.aggregate("scale", 1, False, True, [], [], ["child exited 1"], [])
    rows = len(workloads.workload_rows("scale", toy=True))
    assert record["attempted"] == record["failed"] == rows
    assert not record["correct"]


def test_count_metrics_repeat_exactly():
    keys = ("graph.kernels.balls", "hierarchy.entries", "engine.centers")
    for workload in ("sig-lowdiam", "sig-highdiam"):
        first = toy_run(workload, trace=True)["metrics"]
        second = toy_run(workload, trace=True)["metrics"]
        assert [first[k] for k in keys] == [second[k] for k in keys]
        # Layer self times partition the operations' wall time
        # (engine.pool/serial are whole engine passes, not self times).
        shares = [
            v
            for k, v in first.items()
            if k.endswith("pct") and k not in ("engine.pool_pct", "engine.serial_pct")
        ]
        assert abs(sum(shares) - 100.0) < 1e-6
    assert first["hierarchy.entries"] > 0


def test_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer(min_event_ns=0)
    with tracer.span("op"):
        with tracer.span("engine"):
            with tracer.span("graph.kernels.bfs"):
                sum(range(10000))
        sum(range(10000))
    assert tracer.bad_spans == 0
    assert sum(tracer.root_self_ns["op"].values()) == tracer.root_total_ns["op"]
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    ids = {e["args"]["id"]: e for e in tracer.events}
    bfs = next(e for e in tracer.events if e["cat"] == "graph.kernels.bfs")
    assert ids[bfs["args"]["parent"]]["cat"] == "engine"


def test_instrument_restores_every_entry_point():
    from repro.engine import METRICS, MetricEngine
    from repro.graph import kernels

    before = (kernels.bfs_levels, MetricEngine.compute, dict(METRICS))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    assert kernels.bfs_levels is not before[0]
    assert tracer.restore()
    assert (kernels.bfs_levels, MetricEngine.compute, dict(METRICS)) == before


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _e2e, _on) in run.PER_LAYER.items()
    }


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "scale", "--seed", "1"]) == 2
