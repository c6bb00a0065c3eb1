"""Span tracing from outside the program.

:func:`instrument` rebinds the public entry point of each layer (a
module function at every ``repro`` import site, a class method, or a
field of an engine ``METRICS`` spec) to a wrapper that records a span.
Spans nest on a stack; a span's self time is its duration minus the
durations of the spans it directly contains.  Spans stay in memory and
:meth:`Tracer.write_chrome` writes them out at the end as Chrome
trace-event JSON (spans shorter than ``min_event_ns`` are kept only in
the per-layer totals, which bounds the file on all-pairs workloads).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

# Layer -> the metric holding its total self time.  ``engine.self_s`` is
# the engine's compute wall minus the wrapped layers it calls;
# ``bench.op_self_s`` is the part of an operation outside every layer.
LAYER_TIME_METRICS = {
    "generators": "generators.s",
    "internet": "internet.s",
    "graph.csr.freeze": "graph.csr.freeze_s",
    "graph.kernels.bfs": "graph.kernels.bfs_s",
    "graph.kernels.ball": "graph.kernels.ball_s",
    "graph.kernels_flow.resilience": "graph.kernels_flow.resilience_s",
    "graph.kernels_trees.distortion": "graph.kernels_trees.distortion_s",
    "metrics.policy_eval": "metrics.policy_eval_s",
    "routing.policy.dag": "routing.policy.dag_s",
    "routing.policy.fractions": "routing.policy.fractions_s",
    "routing.shortest.dag": "routing.shortest.dag_s",
    "routing.shortest.fractions": "routing.shortest.fractions_s",
    "engine": "engine.self_s",
    "runtime.shm.publish": "runtime.shm.publish_s",
    "hierarchy.traversal": "hierarchy.traversal_self_s",
    "graph.flow.cover": "graph.flow.cover_s",
    "analysis.classify": "analysis.classify_s",
    "op": "bench.op_self_s",
}

COUNT_METRICS = (
    "generators.edges",
    "graph.csr.bytes",
    "graph.kernels.bfs_calls",
    "graph.kernels.balls",
    "graph.kernels.ball_nodes",
    "engine.centers",
    "runtime.shm.segments",
    "hierarchy.entries",
    "hierarchy.links",
)


_HERE = os.path.dirname(os.path.abspath(__file__))


def _is_call_site(mod) -> bool:
    """The program's modules and the benchmark's own (which import
    entry points by name, so those bindings are rebound too)."""
    if mod is None:
        return False
    if getattr(mod, "__name__", "").startswith("repro"):
        return True
    path = getattr(mod, "__file__", None) or ""
    return os.path.dirname(os.path.abspath(path)) == _HERE if path else False


@dataclasses.dataclass
class _Frame:
    layer: str
    label: Optional[str]
    start_ns: int
    span_id: int
    parent_id: Optional[int]
    child_ns: int = 0


class Tracer:
    """An in-memory span recorder with per-layer self-time totals."""

    def __init__(self, min_event_ns: int = 100_000):
        self.min_event_ns = min_event_ns
        self.origin_ns = time.perf_counter_ns()
        self.self_ns: Dict[str, int] = defaultdict(int)
        # Self time per layer under each root layer ("op" for workload
        # operations, "baseline" for reference runs outside them).
        self.root_self_ns: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.root_total_ns: Dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.spans = 0
        self.bad_spans = 0
        self.events: List[dict] = []
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._patches: List[tuple] = []
        # centers_computed already counted, per live engine
        self.engine_seen = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------
    def enter(self, layer: str, label: Optional[str] = None) -> None:
        parent = self._stack[-1].span_id if self._stack else None
        self._next_id += 1
        self._stack.append(
            _Frame(layer, label, time.perf_counter_ns(), self._next_id, parent)
        )

    def exit(self) -> int:
        end = time.perf_counter_ns()
        frame = self._stack.pop()
        duration = end - frame.start_ns
        own = duration - frame.child_ns
        if own < 0 or frame.child_ns > duration:
            self.bad_spans += 1
        self.spans += 1
        self.self_ns[frame.layer] += own
        root = self._stack[0].layer if self._stack else frame.layer
        self.root_self_ns[root][frame.layer] += own
        if self._stack:
            self._stack[-1].child_ns += duration
        else:
            self.root_total_ns[frame.layer] += duration
        if duration >= self.min_event_ns or not self._stack:
            self.events.append(
                {
                    "name": frame.label or frame.layer,
                    "cat": frame.layer,
                    "ph": "X",
                    "ts": (frame.start_ns - self.origin_ns) / 1000.0,
                    "dur": duration / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": frame.span_id, "parent": frame.parent_id},
                }
            )
        return duration

    def inside(self, layer: str) -> bool:
        return any(frame.layer == layer for frame in self._stack)

    @contextlib.contextmanager
    def span(self, layer: str, label: Optional[str] = None):
        self.enter(layer, label)
        try:
            yield
        finally:
            self.exit()

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, hook: Optional[Callable] = None):
        """``fn`` recording a ``layer`` span per call.

        ``hook(tracer, result, args, duration_ns)`` runs after the span
        closes, so counting is charged to the caller, not the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit()
            if hook is not None:
                hook(tracer, result, args, duration)
            return result

        return traced

    def patch_function(self, module, name: str, layer: str, hook=None) -> None:
        """Rebind ``module.name`` at every ``repro`` module holding it."""
        original = getattr(module, name)
        traced = self.wrap(original, layer, hook)
        for mod in list(sys.modules.values()):
            if not _is_call_site(mod):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, False))
                    setattr(mod, attr, traced)

    def patch_method(self, cls, name: str, layer: str, hook=None) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original, False))
        setattr(cls, name, self.wrap(original, layer, hook))

    def patch_spec_field(self, specs: dict, key: str, field: str, layer: str):
        """Wrap one evaluator field of a frozen engine ``MetricSpec``."""
        spec = specs[key]
        fn = getattr(spec, field)
        if fn is None:
            return
        self._patches.append((specs, key, spec, True))
        specs[key] = dataclasses.replace(spec, **{field: self.wrap(fn, layer)})

    def restore(self) -> bool:
        """Undo every patch; True when each original is back in place."""
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        restored = True
        # A spec patched twice is restored to its first original, so
        # check against the earliest record for each site.
        first: Dict[tuple, Any] = {}
        for owner, attr, original, is_item in self._patches:
            first.setdefault((id(owner), attr), (owner, attr, original, is_item))
        for owner, attr, original, is_item in first.values():
            current = owner[attr] if is_item else getattr(owner, attr)
            restored = restored and current is original
        self._patches = []
        return restored

    # -- output --------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Self time per layer (seconds) and every count, by metric name."""
        out: Dict[str, float] = {}
        for layer, metric in LAYER_TIME_METRICS.items():
            out[metric] = self.self_ns.get(layer, 0) / 1e9
        for metric in COUNT_METRICS:
            out[metric] = float(self.counts.get(metric, 0))
        return out

    def write_chrome(self, path: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": self.events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata or {},
                },
                fh,
            )


# ----------------------------------------------------------------------
# The layer map: which public entry point belongs to which layer.
# ----------------------------------------------------------------------
def _count_edges(tracer, result, args, _duration):
    if not tracer.inside("generators"):
        graph = getattr(result, "graph", result)
        tracer.counts["generators.edges"] += graph.number_of_edges()


def _count_freeze(tracer, result, args, _duration):
    from repro.graph.csr import CSRGraph

    if args and isinstance(args[0], CSRGraph):
        return  # csr_from_graph on a frozen graph is a no-op
    tracer.counts["graph.csr.bytes"] += result.indptr.nbytes + result.indices.nbytes


def _count_bfs(tracer, _result, _args, _duration):
    tracer.counts["graph.kernels.bfs_calls"] += 1


def _count_ball(tracer, result, _args, _duration):
    tracer.counts["graph.kernels.balls"] += 1
    tracer.counts["graph.kernels.ball_nodes"] += len(result)


def _count_engine(tracer, _result, args, duration):
    engine = args[0]
    done = engine.stats["centers_computed"]
    tracer.counts["engine.centers"] += done - tracer.engine_seen.get(engine, 0)
    tracer.engine_seen[engine] = done
    key = "engine.pool_ns" if engine.workers > 0 else "engine.serial_ns"
    tracer.counts[key] += duration


def _count_segment(tracer, result, _args, _duration):
    if result is not None:
        tracer.counts["runtime.shm.segments"] += 1


def _count_traversal(tracer, result, _args, _duration):
    tracer.counts["hierarchy.links"] += len(result)
    tracer.counts["hierarchy.entries"] += sum(len(e) for e in result.values())


def instrument(tracer: Tracer) -> None:
    """Rebind every layer entry point to a span-recording wrapper."""
    # import_module, because a package attribute can shadow its
    # submodule (repro.hierarchy.link_values is also a function).
    def mod(name):
        return importlib.import_module(f"repro.{name}")

    classify = mod("analysis.classify")
    generators = mod("generators")
    builder = mod("generators.builder")
    gen_registry = mod("generators.registry")
    csr = mod("graph.csr")
    kernels = mod("graph.kernels")
    hclass = mod("hierarchy.classification")
    link_values = mod("hierarchy.link_values")
    traversal_sets = mod("hierarchy.traversal_sets")
    internet = mod("internet")
    policy = mod("routing.policy")
    shortest = mod("routing.shortest")
    shm = mod("runtime.shm")
    from repro.engine import METRICS, MetricEngine

    tracer.patch_method(gen_registry.GeneratorSpec, "build", "generators", _count_edges)
    for name in (
        "plrg", "barabasi_albert", "brite", "glp", "inet", "waxman",
        "transit_stub", "tiers", "kary_tree", "mesh", "erdos_renyi",
        "linear_chain", "complete_graph", "rewire_with_method",
    ):
        tracer.patch_function(generators, name, "generators", _count_edges)
    for name in ("synthetic_as_graph", "synthetic_router_graph", "rl_core"):
        tracer.patch_function(internet, name, "internet")

    tracer.patch_function(csr, "csr_from_graph", "graph.csr.freeze", _count_freeze)
    tracer.patch_method(builder.GraphBuilder, "finalize", "graph.csr.freeze", _count_freeze)

    for name in ("bfs_levels", "multi_source_distances", "bfs_with_path_counts"):
        tracer.patch_function(kernels, name, "graph.kernels.bfs", _count_bfs)
    tracer.patch_function(kernels, "ball_members", "graph.kernels.ball", _count_ball)
    tracer.patch_method(kernels.BallBatch, "__init__", "graph.kernels.ball")
    tracer.patch_method(kernels.FusedBatch, "__init__", "graph.kernels.ball")

    for field in ("batch_evaluator", "kernel_evaluator"):
        tracer.patch_spec_field(METRICS, "resilience", field, "graph.kernels_flow.resilience")
        tracer.patch_spec_field(METRICS, "distortion", field, "graph.kernels_trees.distortion")
    for key in list(METRICS):
        tracer.patch_spec_field(METRICS, key, "evaluator", "metrics.policy_eval")

    tracer.patch_function(policy, "policy_dag", "routing.policy.dag")
    tracer.patch_function(policy, "policy_pair_edge_fractions", "routing.policy.fractions")
    tracer.patch_function(shortest, "shortest_path_dag", "routing.shortest.dag")
    tracer.patch_function(shortest, "pair_edge_fractions", "routing.shortest.fractions")

    tracer.patch_method(MetricEngine, "compute", "engine", _count_engine)
    tracer.patch_function(shm, "publish", "runtime.shm.publish", _count_segment)

    tracer.patch_function(
        traversal_sets, "link_traversal_sets", "hierarchy.traversal", _count_traversal
    )
    tracer.patch_function(link_values, "link_value_from_entries", "graph.flow.cover")

    for name in ("classify_expansion", "classify_resilience", "classify_distortion", "signature"):
        tracer.patch_function(classify, name, "analysis.classify")
    tracer.patch_function(hclass, "classify_hierarchy", "analysis.classify")
