"""Tests for the shared-ball MetricEngine (repro.engine).

The determinism contract: engine results are a pure function of
(graph, metric, params, seed) — identical whether computed serially or
across workers, standalone or batched with other metrics, fresh or from
the on-disk cache, and identical to the legacy per-metric functions.
"""

import pytest

from repro.engine import (
    MetricEngine,
    MetricRequest,
    cache_key,
    engine_metric_names,
    graph_fingerprint,
)
from repro.generators.canonical import kary_tree, mesh
from repro.generators.plrg import plrg
from repro.graph.core import Graph
from repro.graph.traversal import bfs_distances
from repro.internet import synthetic_as_graph
from repro.internet.asgraph import ASGraphParams
from repro.metrics import (
    ball_growing_series,
    biconnectivity_series,
    clustering_coefficient,
    clustering_series,
    distortion,
    expansion,
    path_length_series,
    resilience,
    vertex_cover_series,
)

SEED = 7
BALL_PARAMS = dict(num_centers=4, max_ball_size=200, seed=SEED)

LEGACY_FUNCTIONS = {
    "resilience": lambda g: resilience(g, **BALL_PARAMS),
    "distortion": lambda g: distortion(g, **BALL_PARAMS),
    "vertex_cover": lambda g: vertex_cover_series(g, **BALL_PARAMS),
    "biconnectivity": lambda g: biconnectivity_series(g, **BALL_PARAMS),
    "clustering": lambda g: clustering_series(g, **BALL_PARAMS),
    "path_length": lambda g: path_length_series(g, **BALL_PARAMS),
    "expansion": lambda g: expansion(g, num_centers=6, seed=SEED),
}


def graphs():
    return [
        ("tree", kary_tree(3, 5)),
        ("mesh", mesh(10)),
        ("plrg", plrg(250, 2.246, seed=2)),
    ]


def request_for(name):
    if name == "expansion":
        return MetricRequest("expansion", num_centers=6, seed=SEED)
    return MetricRequest(name, **BALL_PARAMS)


def engine(**kwargs):
    kwargs.setdefault("use_cache", False)
    return MetricEngine(**kwargs)


# ----------------------------------------------------------------------
# Equivalence: engine (serial and parallel) vs legacy functions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph_name,graph", graphs())
@pytest.mark.parametrize("metric", sorted(LEGACY_FUNCTIONS))
def test_serial_engine_matches_legacy(graph_name, graph, metric):
    legacy = LEGACY_FUNCTIONS[metric](graph)
    via_engine = engine().compute(graph, [request_for(metric)])[metric]
    assert via_engine == legacy  # bitwise: same floats, same order


@pytest.mark.parametrize("graph_name,graph", graphs())
def test_parallel_engine_matches_legacy(graph_name, graph):
    # One workers=2 pass computing everything at once must reproduce
    # every legacy series bitwise.
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    results = engine(workers=2).compute(graph, requests)
    for metric, legacy_fn in LEGACY_FUNCTIONS.items():
        assert results[metric] == legacy_fn(graph), metric


@pytest.mark.parametrize("graph_name,graph", graphs())
def test_csr_engine_matches_dict_oracle(graph_name, graph):
    # The vectorized CSR kernels vs the dict-of-sets BFS oracle: every
    # series identical to the last bit, for all seven metrics at once.
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    via_csr = engine().compute(graph, requests)
    via_dicts = engine(use_csr=False).compute(graph, requests)
    for metric in LEGACY_FUNCTIONS:
        assert via_csr[metric] == via_dicts[metric], metric


@pytest.mark.parametrize("graph_name,graph", graphs())
def test_engine_accepts_frozen_graph(graph_name, graph):
    # Passing an already-frozen CSRGraph is equivalent to passing the
    # mutable graph (freezing is idempotent and order-preserving).
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    thawed_results = engine().compute(graph, requests)
    frozen_results = engine().compute(graph.freeze(), requests)
    for metric in LEGACY_FUNCTIONS:
        assert frozen_results[metric] == thawed_results[metric], metric


def test_batched_equals_standalone():
    graph = plrg(250, 2.246, seed=2)
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    batched = engine().compute(graph, requests)
    for req in requests:
        standalone = engine().compute(graph, [req])[req.name]
        assert batched[req.name] == standalone, req.name


def test_engine_matches_raw_ball_growing_series():
    # Not a tautology: ball_growing_series is the legacy per-metric
    # machinery with its own loop over dict BFS results; the engine must
    # reproduce it bitwise for RNG-free metrics.
    graph = mesh(12)
    legacy = ball_growing_series(
        graph, clustering_coefficient, num_centers=5, max_ball_size=None, seed=3
    )
    via_engine = engine().compute_one(
        graph, "clustering", num_centers=5, max_ball_size=None, seed=3
    )
    assert via_engine == legacy


def test_engine_policy_balls_match_legacy():
    as_graph = synthetic_as_graph(ASGraphParams(n=200), seed=4)
    legacy = ball_growing_series(
        as_graph.graph,
        clustering_coefficient,
        num_centers=4,
        max_ball_size=150,
        rels=as_graph.relationships,
        seed=5,
    )
    via_engine = engine().compute_one(
        as_graph.graph,
        "clustering",
        num_centers=4,
        max_ball_size=150,
        rels=as_graph.relationships,
        seed=5,
    )
    assert via_engine == legacy


def test_expansion_matches_brute_force():
    # With centers = every node, E(h) is exactly
    # mean_over_centers(|ball(c, h)|) / n.
    graph = kary_tree(2, 5)
    n = graph.number_of_nodes()
    series = engine().compute_one(graph, "expansion", num_centers=n, seed=0)
    for h, value in series:
        total = 0
        for center in graph.nodes():
            dist = bfs_distances(graph, center)
            total += sum(1 for d in dist.values() if d <= h)
        assert value == pytest.approx(total / (n * n))


def test_expansion_max_ball_size_truncates():
    graph = mesh(12)
    full = engine().compute_one(graph, "expansion", num_centers=6, seed=1)
    capped = engine().compute_one(
        graph, "expansion", num_centers=6, max_ball_size=40, seed=1
    )
    assert 0 < len(capped) < len(full)
    assert capped == full[: len(capped)]


@pytest.mark.parametrize("graph_name,graph", graphs())
def test_equivalence_sweep_serial_parallel_cached(graph_name, graph, tmp_path):
    """The full contract on every graph shape: serial == parallel ==
    cached (cold and warm) across all seven engine series at once."""
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    serial = engine().compute(graph, requests)
    parallel = engine(workers=2).compute(graph, requests)
    assert parallel == serial

    cached = MetricEngine(use_cache=True, cache_dir=str(tmp_path))
    cold = cached.compute(graph, requests)
    assert cold == serial
    assert cached.stats["cache_misses"] == len(requests)
    warm = cached.compute(graph, requests)
    assert warm == serial  # bitwise through the JSON round-trip
    assert cached.stats["cache_hits"] == len(requests)


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------

def test_unknown_metric_rejected():
    with pytest.raises(KeyError):
        MetricRequest("modularity")


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError):
        MetricRequest("resilience", radius=3)


def test_duplicate_requests_rejected():
    with pytest.raises(ValueError):
        engine().compute(mesh(4), ["expansion", "expansion"])


def test_bare_names_accepted():
    results = engine().compute(kary_tree(2, 4), ["expansion"])
    assert results["expansion"][-1][1] == pytest.approx(1.0)


def test_metric_names_listing():
    names = engine_metric_names()
    assert "expansion" in names and "resilience" in names
    assert names == sorted(names)


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------

def cached_engine(tmp_path, **kwargs):
    return MetricEngine(use_cache=True, cache_dir=str(tmp_path), **kwargs)


def test_cache_hit_returns_identical_series(tmp_path):
    graph = plrg(200, 2.246, seed=1)
    eng = cached_engine(tmp_path)
    first = eng.compute_one(graph, "resilience", **BALL_PARAMS)
    assert eng.stats == {
        "cache_hits": 0, "cache_misses": 1, "centers_computed": 4,
        "journal_skipped": 0, "shm_published": 0, "shm_reused": 0,
    }
    second = eng.compute_one(graph, "resilience", **BALL_PARAMS)
    assert second == first  # bitwise through the JSON round-trip
    assert eng.stats["cache_hits"] == 1
    assert eng.stats["centers_computed"] == 4  # no recomputation


def test_cache_shared_between_engine_instances(tmp_path):
    graph = kary_tree(3, 5)
    cached_engine(tmp_path).compute_one(graph, "clustering", **BALL_PARAMS)
    other = cached_engine(tmp_path)
    other.compute_one(graph, "clustering", **BALL_PARAMS)
    assert other.stats["cache_hits"] == 1
    assert other.stats["centers_computed"] == 0


def test_param_change_misses_cache(tmp_path):
    graph = kary_tree(3, 5)
    eng = cached_engine(tmp_path)
    eng.compute_one(graph, "resilience", **BALL_PARAMS)
    eng.compute_one(graph, "resilience", num_centers=4, max_ball_size=200, seed=SEED + 1)
    eng.compute_one(graph, "resilience", num_centers=5, max_ball_size=200, seed=SEED)
    assert eng.stats["cache_hits"] == 0
    assert eng.stats["cache_misses"] == 3


def test_edge_change_misses_cache(tmp_path):
    graph = kary_tree(3, 4)
    eng = cached_engine(tmp_path)
    eng.compute_one(graph, "clustering", **BALL_PARAMS)
    changed = graph.copy()
    changed.add_edge(1, 2)
    eng.compute_one(changed, "clustering", **BALL_PARAMS)
    assert eng.stats["cache_hits"] == 0
    assert eng.stats["cache_misses"] == 2


def test_policy_requests_bypass_cache(tmp_path):
    as_graph = synthetic_as_graph(ASGraphParams(n=150), seed=4)
    eng = cached_engine(tmp_path)
    for _ in range(2):
        eng.compute_one(
            as_graph.graph,
            "clustering",
            num_centers=3,
            max_ball_size=100,
            rels=as_graph.relationships,
            seed=1,
        )
    # Relationships have no stable content hash: never cached.
    assert eng.stats["cache_hits"] == 0
    assert eng.stats["cache_misses"] == 0
    assert list(tmp_path.glob("*.json")) == []


def test_clear_cache(tmp_path):
    graph = kary_tree(2, 4)
    eng = cached_engine(tmp_path)
    eng.compute_one(graph, "clustering", **BALL_PARAMS)
    # Entries land in hash-prefix shard subdirectories, not the root.
    assert len(list(tmp_path.glob("*/*.json"))) == 1
    assert list(tmp_path.glob("*.json")) == []
    assert eng.clear_cache() == 1
    assert list(tmp_path.glob("*/*.json")) == []


def test_cache_entries_live_in_hash_prefix_shards(tmp_path):
    from repro.engine.cache import SeriesCache, shard_for

    cache = SeriesCache(str(tmp_path))
    cache.put("expansion-" + "a" * 40, "expansion", [(0, 1.0)])
    key = "expansion-" + "a" * 40
    expected = tmp_path / shard_for(key) / f"{key}.json"
    assert expected.exists()
    assert len(shard_for(key)) == 2


def test_cache_migrates_legacy_flat_entries_on_hit(tmp_path):
    """Pre-shard caches had entries at the root; a hit moves the entry
    into its shard so old caches upgrade in place."""
    from repro.engine.cache import SeriesCache

    cache = SeriesCache(str(tmp_path))
    key = "clustering-" + "b" * 40
    cache.put(key, "clustering", [(0, 0.5), (1, 0.25)])
    sharded = cache.path_for(key)
    legacy = tmp_path / f"{key}.json"
    sharded.rename(legacy)  # simulate a CACHE_VERSION-3 flat layout
    fresh = SeriesCache(str(tmp_path))
    assert fresh.get(key) == [(0, 0.5), (1, 0.25)]
    assert sharded.exists() and not legacy.exists()


def test_cache_lru_eviction_respects_max_entries(tmp_path):
    import os as _os
    import time as _time

    from repro.engine.cache import SeriesCache

    cache = SeriesCache(str(tmp_path), max_entries=2)
    keys = [f"expansion-{digit * 40}" for digit in "1234"]
    now = _time.time()
    for age, key in enumerate(keys):
        cache.put(key, "expansion", [(0, float(age))])
        # Backdate each entry (newest last) so the just-written entry is
        # never the eviction victim of its own put.
        stamp = now - (len(keys) - age) * 100
        if cache.path_for(key).exists():
            _os.utime(cache.path_for(key), (stamp, stamp))
    assert cache.stats["evicted"] >= 2
    survivors = {path.stem for path in cache._iter_entries()}
    assert len(survivors) <= 2
    assert keys[-1] in survivors  # the newest entry is never the victim
    assert keys[0] not in survivors  # the oldest went first


def test_cache_recency_refreshes_on_hit(tmp_path):
    """A read refreshes an entry's LRU position, so hot entries survive
    eviction pressure from new writes."""
    import os as _os
    import time as _time

    from repro.engine.cache import SeriesCache

    cache = SeriesCache(str(tmp_path), max_entries=2)
    hot = "expansion-" + "a" * 40
    cache.put(hot, "expansion", [(0, 1.0)])
    past = _time.time() - 3600
    _os.utime(cache.path_for(hot), (past, past))
    assert cache.get(hot) is not None  # refreshes mtime
    assert cache.path_for(hot).stat().st_mtime > past + 1800


def test_quarantine_dir_capped_at_open(tmp_path):
    from repro.engine.cache import SeriesCache

    quarantine = tmp_path / "quarantine"
    quarantine.mkdir()
    import os as _os
    import time as _time

    now = _time.time()
    for index in range(10):
        stale = quarantine / f"bad-{index}.json"
        stale.write_text("junk")
        _os.utime(stale, (now + index, now + index))
    SeriesCache(str(tmp_path), quarantine_limit=3)
    kept = sorted(path.name for path in quarantine.iterdir())
    assert kept == ["bad-7.json", "bad-8.json", "bad-9.json"]


def test_quarantine_cap_defaults_to_32_newest(tmp_path):
    """The default cap keeps exactly the 32 newest quarantined entries;
    older post-mortems are deleted the next time the cache is opened."""
    import os as _os
    import time as _time

    from repro.engine.cache import QUARANTINE_LIMIT, SeriesCache

    assert QUARANTINE_LIMIT == 32
    quarantine = tmp_path / "quarantine"
    quarantine.mkdir()
    now = _time.time()
    for index in range(QUARANTINE_LIMIT + 8):
        stale = quarantine / f"bad-{index:03d}.json"
        stale.write_text("junk")
        _os.utime(stale, (now + index, now + index))
    SeriesCache(str(tmp_path))
    kept = sorted(path.name for path in quarantine.iterdir())
    assert len(kept) == QUARANTINE_LIMIT
    assert kept[0] == "bad-008.json" and kept[-1] == "bad-039.json"


def test_runtime_quarantining_can_exceed_cap_until_reopen(tmp_path):
    """Quarantining corrupt entries mid-run never discards fresh
    post-mortems — the cap is enforced at open time, so a long-running
    process keeps everything it quarantined and the *next* open prunes
    down to the newest ``quarantine_limit``."""
    from repro.engine.cache import SeriesCache

    cache = SeriesCache(str(tmp_path), quarantine_limit=2)
    keys = [f"expansion-{digit * 40}" for digit in "12345"]
    for key in keys:
        cache.put(key, "expansion", [(0, 1.0)])
        cache.path_for(key).write_text('{"broken')  # corrupt in place
        assert cache.get(key) is None  # quarantined, treated as a miss
    assert cache.stats["quarantined"] == len(keys)
    quarantine = tmp_path / "quarantine"
    assert len(list(quarantine.iterdir())) == len(keys)
    SeriesCache(str(tmp_path), quarantine_limit=2)
    assert len(list(quarantine.iterdir())) == 2


def test_fingerprint_independent_of_construction_order():
    a = Graph([(0, 1), (1, 2), (2, 0)])
    b = Graph([(2, 1), (0, 2), (1, 0)])
    assert graph_fingerprint(a) == graph_fingerprint(b)
    c = Graph([(0, 1), (1, 2)])
    assert graph_fingerprint(a) != graph_fingerprint(c)


def test_cache_key_covers_params_and_seed():
    fp = graph_fingerprint(kary_tree(2, 3))
    base = {"num_centers": 4, "seed": 1, "rels": None}
    k1 = cache_key(fp, "resilience", base)
    k2 = cache_key(fp, "resilience", {**base, "seed": 2})
    k3 = cache_key(fp, "distortion", base)
    assert len({k1, k2, k3}) == 3


# ----------------------------------------------------------------------
# Metric kernels on/off: the CSR kernel layer must be invisible
# ----------------------------------------------------------------------

def _strip_kernels(monkeypatch):
    """Disable every registered batch_evaluator, keeping use_csr=True.

    This isolates the kernel layer from the CSR representation: the
    engine still runs on frozen graphs and batched distances, but every
    ball metric falls back to its dict evaluator on thawed balls.
    """
    import dataclasses

    from repro.engine import requests as requests_mod

    for name, spec in list(requests_mod.METRICS.items()):
        if spec.batch_evaluator is not None:
            monkeypatch.setitem(
                requests_mod.METRICS,
                name,
                dataclasses.replace(spec, batch_evaluator=None),
            )


@pytest.mark.parametrize("graph_name,graph", graphs())
def test_kernels_on_off_bitwise_identical(graph_name, graph, monkeypatch):
    # All seven series with the fused CSR metric kernels dispatched, vs.
    # the same engine with every batch_evaluator stripped: bitwise
    # equal, including the RunReport status blocks.
    requests = [request_for(name) for name in sorted(LEGACY_FUNCTIONS)]
    kernel_engine = engine()
    with_kernels = kernel_engine.compute(graph, requests)
    _strip_kernels(monkeypatch)
    plain_engine = engine()
    without_kernels = plain_engine.compute(graph, requests)
    for metric in LEGACY_FUNCTIONS:
        assert with_kernels[metric] == without_kernels[metric], metric
    assert kernel_engine.last_run == plain_engine.last_run


def test_kernel_registry_covers_the_non_bfs_ball_metrics():
    from repro.engine.requests import METRICS

    kernelized = {n for n, s in METRICS.items() if s.batch_evaluator is not None}
    assert kernelized == {
        "resilience",
        "distortion",
        "vertex_cover",
        "biconnectivity",
    }


# ----------------------------------------------------------------------
# Journal resume with kernels: SIGKILL survival, zero recomputation
# ----------------------------------------------------------------------

ENGINE_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.engine import MetricEngine, MetricRequest
from repro.generators.plrg import plrg
from repro.runtime import FaultPlan, RuntimePolicy
graph = plrg(250, 2.246, seed=2)
requests = [
    MetricRequest(name, num_centers=4, max_ball_size=200, seed=7)
    for name in (
        "resilience", "distortion", "vertex_cover",
        "biconnectivity", "clustering", "path_length",
    )
]
print("started", flush=True)
MetricEngine(
    workers=0, use_cache=False,
    runtime=RuntimePolicy(backoff=0.0, faults=FaultPlan([])),
    journal={journal!r},
).compute(graph, requests)
print("finished", flush=True)
"""


@pytest.mark.slow
def test_sigkill_mid_compute_then_resume_recomputes_only_the_rest(tmp_path):
    import os
    import signal
    import subprocess
    import sys as _sys
    import time

    from repro.runtime import FaultPlan, Journal, RuntimePolicy

    jpath = str(tmp_path / "engine-kill.jsonl")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = ENGINE_KILL_SCRIPT.format(src=src, journal=jpath)
    proc = subprocess.Popen(
        [_sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if os.path.exists(jpath) and any(
                key.startswith("center|") for key in Journal(jpath).keys()
            ):
                break
            if proc.poll() is not None:
                pytest.fail("engine subprocess finished before it was killed")
            time.sleep(0.02)
        else:
            pytest.fail("engine subprocess never journaled a center")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survived = [k for k in Journal(jpath).keys() if k.startswith("center|")]
    assert survived  # the journal outlived the SIGKILL

    graph = plrg(250, 2.246, seed=2)
    requests = [
        MetricRequest(name, num_centers=4, max_ball_size=200, seed=SEED)
        for name in (
            "resilience", "distortion", "vertex_cover",
            "biconnectivity", "clustering", "path_length",
        )
    ]
    clean = engine().compute(graph, requests)

    resumed_engine = MetricEngine(
        workers=0,
        use_cache=False,
        runtime=RuntimePolicy(backoff=0.0, faults=FaultPlan([])),
        journal=jpath,
    )
    resumed = resumed_engine.compute(graph, requests)
    for req in requests:
        assert resumed[req.name] == clean[req.name], req.name
    # Every center journaled before the kill was skipped, not redone.
    assert resumed_engine.stats["journal_skipped"] == len(survived)
    assert resumed_engine.stats["journal_skipped"] > 0

    # A second resume over the now-complete journal recomputes nothing.
    final_engine = MetricEngine(
        workers=0,
        use_cache=False,
        runtime=RuntimePolicy(backoff=0.0, faults=FaultPlan([])),
        journal=jpath,
    )
    final = final_engine.compute(graph, requests)
    for req in requests:
        assert final[req.name] == clean[req.name], req.name
    assert final_engine.stats["centers_computed"] == 0
