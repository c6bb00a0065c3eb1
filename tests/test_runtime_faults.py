"""Chaos suite for the fault-tolerant runtime (repro.runtime).

Every recovery path is driven by the deterministic fault injector and
must converge to the same numbers an unfaulted run produces:

* injected crashes / garbage / hangs are retried and heal bitwise;
* exhausted retries degrade only the faulted centers, with provenance;
* a broken process pool is respawned; persistent breakers are degraded
  to serial execution instead of aborting the run;
* checkpoint journals survive torn tails and make ``resume`` skip all
  finished work — including across a SIGKILL of the whole process;
* corrupted cache entries are quarantined and recomputed.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.engine import MetricEngine, MetricRequest
from repro.generators import plrg
from repro.harness import SWEEP_GRIDS, read_series_json, sweep, write_series_json
from repro.runtime import (
    STATE_FAILED,
    STATE_OK,
    STATE_RETRIED,
    STATE_TIMEOUT,
    FaultPlan,
    FaultSpec,
    Journal,
    RuntimePolicy,
    read_journal_records,
)
from repro.runtime import shm

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def small_graph(seed: int = 11):
    return plrg(140, 2.246, seed=seed)


# Expansion gets its own plan (different center count), so faults aimed
# at resilience can never ride along through a shared-ball task.
REQUESTS = [
    MetricRequest("expansion", num_centers=5, seed=2),
    MetricRequest("resilience", num_centers=4, max_ball_size=None, seed=2),
]

#: A policy with no faults, immune to any ambient REPRO_FAULTS.
def quiet_policy(**kw):
    kw.setdefault("backoff", 0.0)
    kw.setdefault("faults", FaultPlan([]))
    return RuntimePolicy(**kw)


def engine_with(policy=None, workers=0, journal=None, use_cache=False, cache_dir=None):
    return MetricEngine(
        workers=workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        runtime=policy,
        journal=journal,
    )


@pytest.fixture(scope="module")
def baseline():
    g = small_graph()
    return g, MetricEngine(workers=0, use_cache=False).compute(g, REQUESTS)


# ----------------------------------------------------------------------
# Fault plan parsing
# ----------------------------------------------------------------------

def test_fault_plan_round_trips_through_text():
    plan = FaultPlan.parse("crash:resilience:0;hang@5:*:2;garbage:distortion:*:3")
    assert FaultPlan.parse(plan.to_text()).to_text() == plan.to_text()
    assert [s.kind for s in plan.specs] == ["crash", "hang", "garbage"]
    assert plan.specs[1].seconds == 5.0
    assert plan.specs[2].times == 3


def test_fault_spec_fires_only_below_its_attempt_threshold():
    spec = FaultSpec("crash", metric="resilience", center=1, times=2)
    assert spec.matches(["resilience"], 1, attempt=0)
    assert spec.matches(["resilience"], 1, attempt=1)
    assert not spec.matches(["resilience"], 1, attempt=2)
    assert not spec.matches(["expansion"], 1, attempt=0)
    assert not spec.matches(["resilience"], 0, attempt=0)


def test_fault_plan_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        FaultPlan.parse("meltdown:*:0")


# ----------------------------------------------------------------------
# Supervised == unsupervised when nothing faults
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [0, 2])
def test_fault_free_supervised_run_is_bitwise_identical(baseline, workers):
    g, expected = baseline
    engine = engine_with(quiet_policy(), workers=workers)
    assert engine.compute(g, REQUESTS) == expected
    run = engine.last_run
    assert run.ok
    assert all(
        st.states == [STATE_OK] * len(st.states) for st in run.metrics.values()
    )


# ----------------------------------------------------------------------
# Serial recovery
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["crash", "garbage"])
def test_serial_injected_fault_is_retried_to_identical_result(baseline, kind):
    g, expected = baseline
    plan = FaultPlan.parse(f"{kind}:resilience:1")
    engine = engine_with(quiet_policy(retries=2, faults=plan))
    assert engine.compute(g, REQUESTS) == expected
    states = engine.last_run.metrics["resilience"].states
    assert states[1] == STATE_RETRIED
    assert states.count(STATE_RETRIED) == 1


def test_serial_hang_is_recorded_as_timeout_and_retried(baseline):
    g, expected = baseline
    plan = FaultPlan.parse("hang@0.01:resilience:0")
    engine = engine_with(quiet_policy(retries=2, deadline=5.0, faults=plan))
    assert engine.compute(g, REQUESTS) == expected
    status = engine.last_run.metrics["resilience"]
    assert status.states[0] == STATE_RETRIED
    assert status.ok


def test_exhausted_retries_degrade_only_the_faulted_centers(baseline):
    g, expected = baseline
    plan = FaultPlan.parse("crash:resilience:1:99")
    engine = engine_with(quiet_policy(retries=1, faults=plan))
    series = engine.compute(g, REQUESTS)
    run = engine.last_run
    assert not run.ok
    assert run.degraded_metrics == ["resilience"]
    status = run.metrics["resilience"]
    assert status.states[1] == STATE_FAILED
    assert not status.complete
    assert status.errors
    # The unfaulted metric is untouched, bitwise.
    assert series["expansion"] == expected["expansion"]
    # The partial series still averages over the surviving centers.
    assert series["resilience"]


def test_partial_series_are_never_cached(baseline, tmp_path):
    g, expected = baseline
    cache_dir = str(tmp_path / "cache")
    plan = FaultPlan.parse("crash:resilience:1:99")
    engine = engine_with(
        quiet_policy(retries=1, faults=plan), use_cache=True, cache_dir=cache_dir
    )
    engine.compute(g, REQUESTS)
    assert not engine.last_run.ok
    # A fresh engine over the same cache must recompute resilience and
    # land on the unfaulted numbers, not replay the partial series.
    healed = engine_with(quiet_policy(), use_cache=True, cache_dir=cache_dir)
    assert healed.compute(g, REQUESTS) == expected
    assert healed.last_run.metrics["expansion"].source == "cache"
    assert healed.last_run.metrics["resilience"].source == "computed"


# ----------------------------------------------------------------------
# Parallel recovery: broken pools, deadlines, degradation
# ----------------------------------------------------------------------

def test_parallel_worker_crash_respawns_pool_and_heals(baseline):
    g, expected = baseline
    plan = FaultPlan.parse("crash:resilience:1")
    engine = engine_with(quiet_policy(retries=2, faults=plan), workers=2)
    assert engine.compute(g, REQUESTS) == expected
    assert engine.last_run.ok


def test_parallel_hang_is_killed_at_the_deadline_and_retried(baseline):
    g, expected = baseline
    plan = FaultPlan.parse("hang@30:resilience:0")
    engine = engine_with(
        quiet_policy(retries=2, deadline=1.0, faults=plan), workers=2
    )
    start = time.monotonic()
    assert engine.compute(g, REQUESTS) == expected
    assert time.monotonic() - start < 25.0
    assert engine.last_run.ok


def test_persistent_parallel_crasher_is_degraded_to_serial(baseline):
    g, expected = baseline
    # Crashes on every parallel attempt; the serial fallback raises
    # InjectedCrash instead of exiting, and after `times` attempts the
    # fault stops firing — so degradation converges to the true result.
    plan = FaultPlan.parse("crash:resilience:1:2")
    engine = engine_with(
        quiet_policy(retries=3, strikes=1, faults=plan), workers=2
    )
    assert engine.compute(g, REQUESTS) == expected
    status = engine.last_run.metrics["resilience"]
    assert status.states[1] == STATE_RETRIED


# ----------------------------------------------------------------------
# Shared-memory transport: a leaked segment is a bug
# ----------------------------------------------------------------------

def assert_no_shm_leak():
    """No live publisher-side segments, nothing stranded in /dev/shm."""
    assert shm.active_segments() == []
    assert shm.stray_segments() == []


def test_shm_transport_is_bitwise_identical_and_leak_free(baseline):
    g, expected = baseline
    engine = MetricEngine(workers=2, use_cache=False, transport="shm")
    assert engine.compute(g, REQUESTS) == expected
    assert engine.stats["shm_published"] == 1
    assert_no_shm_leak()


def test_shm_released_after_worker_crash_respawn(baseline):
    g, expected = baseline
    plan = FaultPlan.parse("crash:resilience:1")
    engine = MetricEngine(
        workers=2,
        use_cache=False,
        transport="shm",
        runtime=quiet_policy(retries=2, faults=plan),
    )
    assert engine.compute(g, REQUESTS) == expected
    assert engine.last_run.ok
    assert_no_shm_leak()


def test_shm_released_when_dispatch_raises(baseline, monkeypatch):
    """The engine's try/finally must drop the segment even when the
    pool dispatch itself explodes (e.g. an unrecoverable respawn)."""
    g, _ = baseline
    engine = MetricEngine(workers=2, use_cache=False, transport="shm")

    def boom(self, ctx, plans, tasks):
        assert shm.active_segments()  # published before dispatch
        raise RuntimeError("dispatch exploded")

    monkeypatch.setattr(MetricEngine, "_execute_parallel", boom)
    with pytest.raises(RuntimeError, match="dispatch exploded"):
        engine.compute(g, REQUESTS)
    assert_no_shm_leak()


def test_compute_context_pickle_round_trip_and_copy_fallback(baseline):
    from repro.engine.core import _ComputeContext

    g, _ = baseline
    csr = g.freeze()
    ctx = _ComputeContext(csr)
    assert ctx.publish("shm")
    # While the segment is alive, workers reconstruct by name: the
    # pickled payload is a handle, not the arrays.
    live = pickle.loads(pickle.dumps(ctx))
    assert np.array_equal(live.csr.indptr, csr.indptr)
    assert np.array_equal(live.csr.indices, csr.indices)
    assert live.use_csr == ctx.use_csr
    ctx.release()
    ctx.release()  # idempotent on double release
    assert_no_shm_leak()
    # After release the context degrades to the copy transport: it must
    # still pickle (exception paths serialize contexts too), shipping
    # the arrays by value.
    plain = pickle.loads(pickle.dumps(ctx))
    assert np.array_equal(plain.csr.indptr, csr.indptr)
    assert np.array_equal(plain.csr.indices, csr.indices)
    assert_no_shm_leak()


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------

def test_journal_resume_recomputes_nothing_and_is_bitwise_equal(baseline, tmp_path):
    g, expected = baseline
    jpath = str(tmp_path / "journal.jsonl")
    first = engine_with(quiet_policy(), journal=jpath)
    assert first.compute(g, REQUESTS) == expected
    assert first.stats["centers_computed"] == 9

    resumed = engine_with(quiet_policy(), journal=jpath)
    assert resumed.compute(g, REQUESTS) == expected
    assert resumed.stats["centers_computed"] == 0
    assert resumed.stats["journal_skipped"] == 9


def test_journal_tolerates_torn_tail_and_corrupt_lines(baseline, tmp_path):
    g, expected = baseline
    jpath = str(tmp_path / "journal.jsonl")
    engine_with(quiet_policy(), journal=jpath).compute(g, REQUESTS)
    with open(jpath, "r+", encoding="utf-8") as handle:
        lines = handle.readlines()
        handle.seek(0)
        handle.truncate()
        # Drop half a record at the tail (a crash mid-append) and wedge
        # a corrupt line in the middle.
        lines.insert(len(lines) // 2, "not json at all\n")
        handle.writelines(lines)
        handle.write(lines[-1][: len(lines[-1]) // 2])

    journal = Journal(jpath)
    journal.load()
    assert journal.corrupt_lines >= 1
    engine = engine_with(quiet_policy(), journal=jpath)
    assert engine.compute(g, REQUESTS) == expected
    # Only the torn-off record is recomputed; the rest resumes.
    assert engine.stats["centers_computed"] <= 1


def test_journal_survives_truncation_at_every_tail_offset(tmp_path):
    """Torn-tail fuzz: cutting the file at *every* byte offset of the
    final record must never raise, never lose an earlier record, and
    count exactly the one torn line (when one remains)."""
    jpath = tmp_path / "fuzz.jsonl"
    journal = Journal(jpath)
    for i in range(4):
        journal.append(f"task{i}", {"index": i, "value": [i, i * 0.5]})
    full = jpath.read_bytes()
    last_start = full.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(last_start, len(full) + 1):
        jpath.write_bytes(full[:cut])
        reloaded = Journal(jpath)
        entries = reloaded.load()
        for i in range(3):
            assert entries[f"task{i}"] == {"index": i, "value": [i, i * 0.5]}
        if cut == last_start:
            # Clean cut right before the record: simply absent.
            assert "task3" not in entries
            assert reloaded.corrupt_lines == 0
        elif cut >= len(full) - 1:
            # The whole record survived (the newline is optional).
            assert entries["task3"] == {"index": 3, "value": [3, 1.5]}
            assert reloaded.corrupt_lines == 0
        else:
            # A genuinely torn tail: skipped and counted, nothing else.
            assert "task3" not in entries
            assert reloaded.corrupt_lines == 1
        records, corrupt = read_journal_records(jpath)
        assert [key for key, _ in records] == sorted(entries)
        assert corrupt == reloaded.corrupt_lines


def test_journal_load_propagates_non_missing_oserrors(tmp_path):
    # A missing journal is an empty journal...
    missing = tmp_path / "missing.jsonl"
    assert Journal(missing).load() == {}
    assert read_journal_records(missing) == ([], 0)
    # ...but any other OSError must surface instead of masquerading as
    # "no checkpoints" (which would silently recompute everything).
    directory = tmp_path / "journal.jsonl"
    directory.mkdir()
    with pytest.raises(OSError):
        Journal(directory).load()
    with pytest.raises(OSError):
        read_journal_records(directory)


def test_journal_entries_written_under_faults_resume_clean(baseline, tmp_path):
    g, expected = baseline
    jpath = str(tmp_path / "journal.jsonl")
    plan = FaultPlan.parse("crash:resilience:0")
    engine_with(quiet_policy(retries=2, faults=plan), journal=jpath).compute(
        g, REQUESTS
    )
    resumed = engine_with(quiet_policy(), journal=jpath)
    assert resumed.compute(g, REQUESTS) == expected
    assert resumed.stats["centers_computed"] == 0


# ----------------------------------------------------------------------
# Self-healing cache
# ----------------------------------------------------------------------

def corrupt_cache_files(cache_dir, mutate):
    count = 0
    # Entries live in hash-prefix shard subdirectories under the root.
    for dirpath, dirnames, filenames in os.walk(cache_dir):
        dirnames[:] = [d for d in dirnames if d != "quarantine"]
        for name in sorted(filenames):
            if name.startswith("."):
                continue
            mutate(os.path.join(dirpath, name))
            count += 1
    return count


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: open(p, "a", encoding="utf-8").write("tail-garbage"),
        lambda p: open(p, "w", encoding="utf-8").write('{"version": 2'),
        lambda p: os.truncate(p, 5),
    ],
    ids=["appended", "half-written", "truncated"],
)
def test_corrupt_cache_entries_are_quarantined_and_recomputed(
    baseline, tmp_path, mutate
):
    g, expected = baseline
    cache_dir = str(tmp_path / "cache")
    engine_with(use_cache=True, cache_dir=cache_dir).compute(g, REQUESTS)
    corrupted = corrupt_cache_files(cache_dir, mutate)
    assert corrupted

    engine = engine_with(use_cache=True, cache_dir=cache_dir)
    assert engine.compute(g, REQUESTS) == expected
    assert engine.cache.stats["quarantined"] == corrupted
    quarantine = os.path.join(cache_dir, "quarantine")
    assert len(os.listdir(quarantine)) == corrupted
    # The healed entries serve hits again.
    again = engine_with(use_cache=True, cache_dir=cache_dir)
    assert again.compute(g, REQUESTS) == expected
    assert again.cache.stats["hits"] == len(REQUESTS)


def test_cache_checksum_catches_silent_value_tampering(baseline, tmp_path):
    g, expected = baseline
    cache_dir = str(tmp_path / "cache")
    engine_with(use_cache=True, cache_dir=cache_dir).compute(g, REQUESTS)

    def flip_value(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["series"][0][1] += 1.0  # valid JSON, wrong numbers
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    corrupted = corrupt_cache_files(cache_dir, flip_value)
    engine = engine_with(use_cache=True, cache_dir=cache_dir)
    assert engine.compute(g, REQUESTS) == expected
    assert engine.cache.stats["quarantined"] == corrupted


# ----------------------------------------------------------------------
# Sweep / export integration
# ----------------------------------------------------------------------

def test_sweep_rows_resume_from_journal(tmp_path):
    jpath = str(tmp_path / "sweep.jsonl")
    make, grid = SWEEP_GRIDS["random"]
    grid = [dict(g, n=120) for g in grid]
    rows = sweep("random", make, grid, classify=True, num_centers=3,
                 max_ball_size=120, journal=jpath)
    assert all(not row.resumed for row in rows)
    assert all(row.status == "ok" for row in rows)

    resumed = sweep("random", make, grid, classify=True, num_centers=3,
                    max_ball_size=120, journal=jpath, resume=True)
    assert all(row.resumed for row in resumed)
    for row, back in zip(rows, resumed):
        assert (row.generator, row.params, row.nodes, row.signature) == (
            back.generator, back.params, back.nodes, back.signature
        )


def test_sweep_without_resume_truncates_an_owned_journal_path(tmp_path):
    jpath = str(tmp_path / "sweep.jsonl")
    make, grid = SWEEP_GRIDS["random"]
    grid = [dict(g, n=120) for g in grid[:1]]
    sweep("random", make, grid, journal=jpath)
    first_len = len(Journal(jpath))
    sweep("random", make, grid, journal=jpath)  # no resume: fresh run
    assert len(Journal(jpath)) == first_len


def test_export_round_trips_the_runtime_status_block(baseline, tmp_path):
    g, _ = baseline
    plan = FaultPlan.parse("crash:resilience:1:99")
    engine = engine_with(quiet_policy(retries=1, faults=plan))
    series = engine.compute(g, REQUESTS)
    path = str(tmp_path / "series.json")
    write_series_json(series, path, status=engine.last_run.to_payload())
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["status"]["resilience"]["complete"] is False
    assert payload["status"]["resilience"]["states"][1] == STATE_FAILED
    assert payload["status"]["expansion"]["complete"] is True
    # Readers that predate the status block still get the series.
    assert read_series_json(path) == {
        name: list(points) for name, points in series.items()
    }


# ----------------------------------------------------------------------
# Kill -9 and resume: the whole point
# ----------------------------------------------------------------------

KILL_GRID = [{"n": 200, "p": round(0.02 + 0.002 * i, 3)} for i in range(6)]

KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.generators import erdos_renyi
from repro.harness import sweep
grid = [dict(n=200, p=round(0.02 + 0.002 * i, 3)) for i in range(6)]
print("started", flush=True)
sweep("random", erdos_renyi, grid, classify=True,
      num_centers=4, max_ball_size=200,
      journal={journal!r})
print("finished", flush=True)
"""


@pytest.mark.slow
def test_sigkill_mid_sweep_then_resume_skips_journaled_work(tmp_path):
    jpath = str(tmp_path / "kill.jsonl")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = KILL_SCRIPT.format(src=src, journal=jpath)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
    )
    try:
        # Wait for at least one row to be journaled, then kill -9.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if os.path.exists(jpath) and any(
                key.startswith("sweeprow|") for key in Journal(jpath).keys()
            ):
                break
            if proc.poll() is not None:
                pytest.fail("sweep subprocess finished before it was killed")
            time.sleep(0.05)
        else:
            pytest.fail("sweep subprocess never journaled a row")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survived = list(Journal(jpath).keys())
    assert survived  # the journal outlived the SIGKILL

    from repro.generators import erdos_renyi

    journal = Journal(jpath)
    engine = MetricEngine(
        workers=0, use_cache=False, runtime=quiet_policy(), journal=journal
    )
    rows = sweep(
        "random", erdos_renyi, KILL_GRID, classify=True,
        num_centers=4, max_ball_size=200,
        journal=journal, resume=True, engine=engine,
    )
    assert len(rows) == 6
    assert all(row.signature for row in rows)
    # Everything journaled before the kill was skipped, not redone.
    pre_kill_rows = sum(1 for key in survived if key.startswith("sweeprow|"))
    assert sum(1 for row in rows if row.resumed) == pre_kill_rows
    # And no duplicate keys were appended by the resumed run.
    keys = [key for key in Journal(jpath).keys()]
    assert len(keys) == len(set(keys))
