"""The shared-ball :class:`MetricEngine`.

Every series function in :mod:`repro.metrics` measures quantities on the
same family of ball subgraphs.  Computed independently, a full report
re-runs BFS from every center and re-materialises every ball once per
metric.  The engine instead takes a *batch* of
:class:`~repro.engine.requests.MetricRequest` objects and

1. grows each center's balls **once**, evaluating all requested per-ball
   metrics against the shared induced subgraph (and serving distance-only
   metrics like expansion from the same distance maps),
2. optionally fans centers out across a ``ProcessPoolExecutor``
   (``workers=0`` is a serial fallback with identical results), and
3. caches finished series on disk under ``.repro-cache/`` keyed by a
   content hash of (edge set, metric name, params, seed) — see
   :mod:`repro.engine.cache`.

Determinism contract
--------------------
Results are a pure function of ``(graph, metric, params, seed)``:

* Ball centers are sampled exactly as the legacy per-metric functions
  sampled them (including the legacy functions' pre-sampling RNG draws),
  so the engine visits the same centers for the same seed.
* Metrics that randomise per ball (resilience's partitioner, distortion's
  tree heuristics) draw from a per-(metric, center) RNG stream derived
  from the seed and the center index.  A center's stream does not depend
  on which other metrics share the pass, on worker count, or on
  scheduling — so serial and parallel runs, and batched and standalone
  runs, are bitwise identical.
* Per-radius averages are accumulated in center order regardless of
  which worker finished first, so float addition order is fixed.

Representation
--------------
The engine freezes the input graph once per :meth:`compute` into a
:class:`~repro.graph.csr.CSRGraph` (accepting either representation)
and runs BFS through the vectorized kernels in
:mod:`repro.graph.kernels`; worker processes are initialised with the
compact CSR arrays instead of re-pickling the dict-of-sets graph.  Ball
subgraphs are induced on the *canonical thawed* graph (``csr.thaw()``),
so member ordering — and therefore every downstream float — is a pure
function of graph content, independent of adjacency-set insertion
history.  ``MetricEngine(use_csr=False)`` swaps the BFS producer and
the fused ball-metric kernels for the legacy dict implementations while
sharing all other code: the dict path is the oracle the CSR kernels are
tested bitwise-equal against (``repro selfcheck --family csr`` and
``--family kernels``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.cache import SeriesCache, cache_key, graph_fingerprint
from repro.engine.requests import METRICS, MetricRequest, MetricSpec
from repro.generators.base import make_rng
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph, csr_from_graph
from repro.graph.traversal import bfs_distances
# The dict policy DAG and _policy_ball_from_dag are the Appendix E
# oracle behind ``use_csr=False``; the CSR path builds the same balls
# from kernels.policy_levels' arc radii.
from repro.metrics.balls import _policy_ball_from_dag, sample_centers
from repro.routing.policy import policy_dag
from repro.runtime import faults as _faults
from repro.runtime import shm as _shm
from repro.runtime.journal import Journal, as_journal
from repro.runtime.status import CenterStatus, RunReport, SeriesStatus
from repro.runtime.supervisor import RuntimePolicy, Supervisor

Series = List[Tuple[float, float]]

# Request parameters that shape the pass itself; everything else is
# forwarded to the per-ball evaluator (e.g. resilience's ``trials``).
_STRUCTURAL_PARAMS = frozenset(
    ("num_centers", "centers", "max_ball_size", "min_ball_size", "rels", "seed")
)


@dataclasses.dataclass
class _Resolved:
    """A request with its parameters, centers and RNG streams pinned."""

    request: MetricRequest
    spec: MetricSpec
    params: Dict[str, Any]
    centers: List[Any]
    center_seeds: Optional[List[int]]
    key: Optional[str] = None
    series: Optional[Series] = None


@dataclasses.dataclass
class _BallMember:
    """One ball metric riding a shared group."""

    rid: int  # index into the pending request list
    name: str
    eval_params: Dict[str, Any]
    center_seeds: Optional[List[int]]


@dataclasses.dataclass
class _BallGroup:
    """Ball metrics that share the exact same ball family."""

    max_ball_size: Optional[int]
    min_ball_size: int
    members: List[_BallMember]


@dataclasses.dataclass
class _Plan:
    """All work sharing one (centers, relationships) pass."""

    centers: List[Any]
    rels: Any
    distance_rids: List[int]
    groups: List[_BallGroup]
    # ``rels.arc_codes(csr)``, encoded once in the parent for the CSR
    # path's policy plans (None otherwise).
    codes: Optional[np.ndarray] = None


class _ComputeContext:
    """A frozen graph plus its lazily-thawed canonical form.

    The context is what execution paths (serial, pool, supervisor) pass
    around instead of the raw graph: pickling it ships only the compact
    CSR arrays — or, after :meth:`publish`, just a shared-memory
    :class:`~repro.runtime.shm.SegmentHandle` that workers attach to
    zero-copy.  Each worker thaws the canonical ``Graph`` at most once.
    ``use_csr=False`` selects the dict-of-sets oracle for BFS and every
    ball metric.  Every other step is shared, so a mismatch isolates
    the layer that diverged.
    """

    __slots__ = ("csr", "use_csr", "_graph", "_segment")

    def __init__(self, csr: CSRGraph, use_csr: bool = True):
        self.csr = csr
        self.use_csr = bool(use_csr)
        self._graph: Optional[Graph] = None
        self._segment: Optional[_shm.SharedGraph] = None

    @property
    def graph(self) -> Graph:
        """The canonical thawed graph (built on first use)."""
        if self._graph is None:
            self._graph = self.csr.thaw()
        return self._graph

    def publish(self, transport: str = "auto") -> bool:
        """Move worker transport onto a shared-memory segment.

        After a successful publish, pickling this context ships only
        the segment handle; workers attach read-only by name.  Returns
        whether shm transport is active.  ``transport="copy"`` skips
        publication; ``"shm"`` raises if a segment cannot be created;
        ``"auto"`` silently keeps copy transport on failure.  The
        caller owns the published reference and must pair this with
        :meth:`release` (engine and service do so in ``finally``
        blocks, so exception paths cannot leak segments).
        """
        if transport == "copy":
            return False
        if self._segment is not None and self._segment.alive:
            return True
        segment = _shm.publish(self.csr)
        if segment is None:
            if transport == "shm":
                raise RuntimeError(
                    "shared-memory transport requested but unavailable"
                )
            return False
        self._segment = segment
        return True

    def release(self) -> None:
        """Drop this context's segment reference (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.release()

    def __reduce__(self):
        segment = self._segment
        if segment is not None and segment.alive:
            return (_ctx_from_handle, (segment.handle, self.use_csr))
        return (_ComputeContext, (self.csr, self.use_csr))


def _ctx_from_handle(
    handle: "_shm.SegmentHandle", use_csr: bool
) -> _ComputeContext:
    """Worker-side unpickle target: attach instead of copying arrays."""
    return _ComputeContext(_shm.attach(handle), use_csr=use_csr)


def _center_distances(ctx: _ComputeContext, plan: _Plan, ci: int):
    """Distance vector (and policy ball data, if any) for one center.

    Returns ``(dist, policy)``: ``dist`` is a dense int32 array over
    node indices (``-1`` = unreached).  ``policy`` is ``None`` for plain
    plans; for policy plans it is the per-arc radius array of
    :func:`~repro.graph.kernels.policy_levels` on the CSR path and the
    dict :class:`~repro.routing.policy.PolicyDAG` on the oracle path.
    Both paths fill the same ``dist``, so the radius schedule and the
    distance metrics are representation-blind.
    """
    center = plan.centers[ci]
    csr = ctx.csr
    if ctx.use_csr:
        if plan.codes is not None:
            return kernels.policy_levels(csr, plan.codes, csr.index_of(center))
        return kernels.bfs_levels(csr, csr.index_of(center)), None
    dist = np.full(csr.number_of_nodes(), -1, dtype=np.int32)
    if plan.rels is not None:
        dag = policy_dag(ctx.graph, plan.rels, center)
        for (node, _state), d in dag.state_dist.items():
            i = csr.index_of(node)
            if dist[i] < 0 or d < dist[i]:
                dist[i] = d
        return dist, dag
    for node, d in bfs_distances(ctx.graph, center).items():
        dist[csr.index_of(node)] = d
    return dist, None


def _ball_batch(
    csr: CSRGraph,
    dist: np.ndarray,
    arc_radius: Optional[np.ndarray],
    schedule: List[Tuple[int, int]],
) -> kernels.BallBatch:
    """Every ball of a ``(radius, size)`` schedule in one batch; policy
    balls (``arc_radius`` given) keep only their policy-path arcs."""
    radii = [radius for radius, _size in schedule]
    return kernels.BallBatch(
        csr,
        [kernels.ball_members(dist, radius) for radius in radii],
        arc_radius=arc_radius,
        radii=radii if arc_radius is not None else None,
    )


def _compute_center(ctx: _ComputeContext, plan: _Plan, ci: int):
    """Everything ``plan`` needs from one center, in a single pass.

    Returns ``(counts_at, group_contributions)`` where ``counts_at`` is
    the per-distance node count (``None`` when no distance metric was
    requested) and ``group_contributions[g]`` is a list of
    ``(radius, ball_size, {rid: value})`` tuples for ball group ``g``.
    """
    dist, policy = _center_distances(ctx, plan, ci)
    per_level = kernels.level_counts(dist)
    max_radius = len(per_level) - 1

    counts_at = None
    if plan.distance_rids:
        counts_at = [int(c) for c in per_level]

    group_contributions: List[List[Tuple[int, int, Dict[int, float]]]] = []
    if plan.groups:
        cumulative = np.cumsum(per_level)
        nodes = ctx.csr.node_list()
        for group in plan.groups:
            rngs = {
                member.rid: (
                    random.Random(member.center_seeds[ci])
                    if member.center_seeds is not None
                    else None
                )
                for member in group.members
            }
            # First pass: pin the (radius, size) schedule so the CSR path
            # can slice every ball of this group in one batched call.
            schedule: List[Tuple[int, int]] = []
            prev_size = 0
            for radius in range(1, max_radius + 1):
                size = int(cumulative[radius])
                if size == prev_size:
                    continue
                prev_size = size
                if size < group.min_ball_size:
                    continue
                if group.max_ball_size is not None and size > group.max_ball_size:
                    break
                schedule.append((radius, size))

            # Metrics with a batch evaluator run on one fused union of
            # the whole schedule's balls, one call per member before the
            # per-radius loop (bitwise equal to the dict path: the batch
            # kernels make the same rng draws on the same canonical
            # index order).  Each member draws from its *own* rng
            # stream, so consuming it across all balls up front is the
            # same draw sequence a per-ball loop makes.  Policy balls
            # are sliced with their arc filter, so they ride the same
            # batch.  A dict ball is built lazily, per radius, only for
            # members without a batch evaluator and on the oracle path.
            batch = None
            fused = None
            fused_values: Dict[int, List[float]] = {}
            if ctx.use_csr and schedule:
                for member in group.members:
                    spec = METRICS[member.name]
                    if spec.batch_evaluator is None:
                        continue
                    if fused is None:
                        batch = _ball_batch(ctx.csr, dist, policy, schedule)
                        fused = kernels.FusedBatch(batch)
                    fused_values[member.rid] = spec.batch_evaluator(
                        fused, rngs[member.rid], member.eval_params
                    )
            contributions: List[Tuple[int, int, Dict[int, float]]] = []
            for bi, (radius, size) in enumerate(schedule):
                ball = None
                values: Dict[int, float] = {}
                for member in group.members:
                    spec = METRICS[member.name]
                    if member.rid in fused_values:
                        values[member.rid] = fused_values[member.rid][bi]
                        continue
                    if ball is None:
                        if policy is None:
                            # Canonical members: ascending node index.
                            # The induced subgraph (and so every
                            # evaluator float) is a pure function of
                            # graph content.
                            members = kernels.ball_members(dist, radius)
                            ball = ctx.graph.subgraph(
                                [nodes[i] for i in members]
                            )
                        elif ctx.use_csr:
                            if batch is None:
                                batch = _ball_batch(
                                    ctx.csr, dist, policy, schedule
                                )
                            ball = batch.sub_csr(bi).thaw()
                        else:
                            ball = _policy_ball_from_dag(
                                policy, radius, ctx.csr.index_of
                            )
                    values[member.rid] = spec.evaluator(
                        ball, rngs[member.rid], member.eval_params
                    )
                contributions.append((radius, size, values))
            group_contributions.append(contributions)
    return counts_at, group_contributions


# ----------------------------------------------------------------------
# Process-pool plumbing.  Workers receive the compute context (compact
# CSR arrays, thawed lazily in-worker) and plans once via the pool
# initializer and are then sent only (plan, center) indices.
# ----------------------------------------------------------------------

_WORKER_CTX: Optional[_ComputeContext] = None
_WORKER_PLANS: Optional[List[_Plan]] = None


def _pool_init(ctx: _ComputeContext, plans: List[_Plan]) -> None:
    global _WORKER_CTX, _WORKER_PLANS
    _WORKER_CTX = ctx
    _WORKER_PLANS = plans


def _pool_task(task: Tuple[int, int]):
    pi, ci = task
    return _compute_center(_WORKER_CTX, _WORKER_PLANS[pi], ci)


def _expansion_series(
    n: int,
    per_center_counts: List[List[int]],
    num_centers_used: int,
    max_ball_size: Optional[int],
) -> List[Tuple[int, float]]:
    """Fold per-center distance counts into the E(h) series.

    Identical to the legacy :func:`repro.metrics.expansion.expansion`
    fold: a center whose ball stops growing keeps counting at full reach
    for larger radii.  ``max_ball_size`` (an engine extension) truncates
    the series once the average ball exceeds that many nodes.
    """
    if not per_center_counts or n == 0 or num_centers_used == 0:
        return []
    global_max = max(len(counts) for counts in per_center_counts) - 1
    reach_counts = [0] * (global_max + 1)
    for counts_at in per_center_counts:
        running = 0
        for h in range(global_max + 1):
            if h < len(counts_at):
                running += counts_at[h]
            reach_counts[h] += running
    series: List[Tuple[int, float]] = []
    for h, total in enumerate(reach_counts):
        if max_ball_size is not None and total / num_centers_used > max_ball_size:
            break
        series.append((h, total / (num_centers_used * n)))
    return series


class MetricEngine:
    """One-pass, parallel, cached evaluation of the paper's metrics.

    Parameters
    ----------
    workers:
        Number of worker processes to fan ball centers across.  ``0``
        (the default) computes serially in-process; results are
        identical either way.
    use_csr:
        Run BFS through the vectorized CSR kernels and evaluate each
        center's whole radius schedule through the fused batch kernels
        (the default).  ``False`` swaps in the legacy dict-of-sets BFS
        and ball evaluators — the oracle path; results are bitwise
        identical either way.
    transport:
        How workers receive the frozen graph: ``"auto"`` (the default)
        publishes it to a shared-memory segment when possible and falls
        back to pickled-array copies, ``"shm"`` requires shared memory
        (raises if unavailable), ``"copy"`` always pickles.  ``None``
        reads ``REPRO_TRANSPORT``.  Results are identical either way.
    use_cache:
        Store and reuse finished series on disk.
    cache_dir:
        Cache directory, ``.repro-cache/`` by default.
    runtime:
        A :class:`repro.runtime.RuntimePolicy` enabling the supervised
        fault-tolerant executor (deadlines, retries, pool respawn,
        graceful degradation).  ``None`` keeps the plain executor —
        unless the ``REPRO_FAULTS`` environment variable is set, which
        auto-enables a default policy so injected faults are supervised.
        Fault-free supervised runs are bitwise identical to plain runs.
    journal:
        A :class:`repro.runtime.Journal` (or path) checkpointing every
        completed (graph, plan, center) task; a later engine given the
        same journal skips those tasks entirely (``--resume``).
    cache:
        An already-open :class:`~repro.engine.cache.SeriesCache` to use
        instead of opening ``cache_dir`` — the service daemon shares
        one sharded store across every pass this way.

    After every :meth:`compute`, :attr:`last_run` holds a
    :class:`repro.runtime.RunReport` with the per-center
    ``ok|retried|timeout|failed`` status block of each metric; a metric
    whose retries were exhausted returns a *partial* series (surviving
    centers only) instead of raising.

    Examples
    --------
    >>> from repro.engine import MetricEngine, MetricRequest
    >>> from repro.generators import kary_tree
    >>> engine = MetricEngine(use_cache=False)
    >>> results = engine.compute(kary_tree(3, 5), [
    ...     MetricRequest("expansion", num_centers=8, seed=1),
    ...     MetricRequest("resilience", num_centers=4, seed=1),
    ... ])
    >>> sorted(results)
    ['expansion', 'resilience']
    """

    def __init__(
        self,
        workers: int = 0,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        runtime: Optional[RuntimePolicy] = None,
        journal: Optional[Union[Journal, str]] = None,
        use_csr: bool = True,
        cache: Optional[SeriesCache] = None,
        transport: Optional[str] = None,
    ):
        self.workers = int(workers)
        self.use_cache = bool(use_cache)
        self.use_csr = bool(use_csr)
        if transport is None:
            transport = os.environ.get("REPRO_TRANSPORT") or "auto"
        if transport not in ("auto", "shm", "copy"):
            raise ValueError(
                f"transport must be 'auto', 'shm' or 'copy', got {transport!r}"
            )
        self.transport = transport
        self.cache = cache if cache is not None else SeriesCache(cache_dir)
        if runtime is None and os.environ.get(_faults.ENV_VAR):
            # Injected faults only make sense under supervision.
            runtime = RuntimePolicy()
        self.runtime = runtime
        self.journal = as_journal(journal)
        self.last_run = RunReport()
        self.stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "centers_computed": 0,
            "journal_skipped": 0,
            "shm_published": 0,
            "shm_reused": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compute(
        self,
        graph: Union[Graph, CSRGraph],
        requests: Sequence[Union[MetricRequest, str]],
    ) -> Dict[str, Series]:
        """Evaluate a batch of metric requests in one shared pass.

        ``graph`` may be a mutable :class:`Graph` or an already-frozen
        :class:`~repro.graph.csr.CSRGraph`; it is frozen (once) either
        way.  ``requests`` may mix :class:`MetricRequest` objects and
        bare metric names (which use that metric's default parameters).
        Returns ``{metric name: series}`` in request order.
        """
        reqs = [
            req if isinstance(req, MetricRequest) else MetricRequest(req)
            for req in requests
        ]
        names = [req.name for req in reqs]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate metric names in one compute call: {names}"
            )
        resolved = [self._resolve(graph, req) for req in reqs]
        ctx = _ComputeContext(csr_from_graph(graph), use_csr=self.use_csr)

        if self.use_cache:
            fingerprint = graph_fingerprint(graph)
            for res in resolved:
                res.key = cache_key(fingerprint, res.request.name, res.params)
                if res.key is None:
                    continue
                hit = self.cache.get(res.key)
                if hit is not None:
                    res.series = hit
                    self.stats["cache_hits"] += 1
                else:
                    self.stats["cache_misses"] += 1

        report = RunReport()
        for res in resolved:
            if res.series is not None:
                report.metrics[res.request.name] = SeriesStatus(
                    metric=res.request.name, source="cache"
                )

        pending = [res for res in resolved if res.series is None]
        if pending:
            plans = self._build_plans(pending, ctx)
            per_plan_results, per_plan_statuses = self._execute(
                ctx, plans, pending
            )
            self._merge(ctx, plans, per_plan_results, pending)
            self._attach_statuses(plans, per_plan_statuses, pending, report)
            if self.use_cache:
                for res in pending:
                    # Partial (degraded) series must never be served as
                    # complete later: only fully-ok series are cached.
                    if (
                        res.key is not None
                        and report.metrics[res.request.name].complete
                    ):
                        self.cache.put(res.key, res.request.name, res.series)
        self.last_run = report
        return {res.request.name: res.series for res in resolved}

    def compute_one(
        self, graph: Union[Graph, CSRGraph], name: str, **params: Any
    ) -> Series:
        """Convenience wrapper: one metric, parameters as kwargs."""
        return self.compute(graph, [MetricRequest(name, params)])[name]

    def clear_cache(self) -> int:
        """Delete every cached series; returns the number removed."""
        return self.cache.clear()

    # ------------------------------------------------------------------
    # Resolution and planning
    # ------------------------------------------------------------------
    def _resolve(
        self, graph: Union[Graph, CSRGraph], request: MetricRequest
    ) -> _Resolved:
        spec = METRICS[request.name]
        params = spec.resolve_params(request.params)
        rng = make_rng(params["seed"])
        # Legacy RNG protocol: metrics with a per-ball RNG drew their
        # stream seed *before* sampling centers; replicating the draw
        # keeps the engine on the same centers as the legacy functions.
        master_bits = rng.getrandbits(32) if spec.uses_rng else None
        centers = params["centers"]
        if centers is None:
            centers = sample_centers(graph, params["num_centers"], seed=rng)
        else:
            centers = list(centers)
        center_seeds = None
        if spec.uses_rng:
            seeder = random.Random(master_bits)
            center_seeds = [seeder.getrandbits(64) for _ in centers]
        return _Resolved(
            request=request,
            spec=spec,
            params=params,
            centers=centers,
            center_seeds=center_seeds,
        )

    def _build_plans(
        self, pending: List[_Resolved], ctx: _ComputeContext
    ) -> List[_Plan]:
        plans: List[_Plan] = []
        plans_by_key: Dict[Tuple, _Plan] = {}
        # One encoding per annotation, shared by its plans (expansion
        # and the ball metrics usually sample different centers).
        codes_by_rels: Dict[int, np.ndarray] = {}
        for rid, res in enumerate(pending):
            rels = res.params["rels"]
            key = (
                tuple(res.centers),
                id(rels) if rels is not None else None,
            )
            plan = plans_by_key.get(key)
            if plan is None:
                codes = None
                if rels is not None and ctx.use_csr:
                    codes = codes_by_rels.get(id(rels))
                    if codes is None:
                        codes = codes_by_rels[id(rels)] = rels.arc_codes(ctx.csr)
                plan = _Plan(
                    centers=res.centers,
                    rels=rels,
                    distance_rids=[],
                    groups=[],
                    codes=codes,
                )
                plans_by_key[key] = plan
                plans.append(plan)
            if res.spec.kind == "distance":
                plan.distance_rids.append(rid)
                continue
            gkey = (res.params["max_ball_size"], res.params["min_ball_size"])
            group = next(
                (
                    g
                    for g in plan.groups
                    if (g.max_ball_size, g.min_ball_size) == gkey
                ),
                None,
            )
            if group is None:
                group = _BallGroup(
                    max_ball_size=gkey[0], min_ball_size=gkey[1], members=[]
                )
                plan.groups.append(group)
            group.members.append(
                _BallMember(
                    rid=rid,
                    name=res.request.name,
                    eval_params={
                        k: v
                        for k, v in res.params.items()
                        if k not in _STRUCTURAL_PARAMS
                    },
                    center_seeds=res.center_seeds,
                )
            )
        return plans

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self, ctx: _ComputeContext, plans: List[_Plan], pending: List[_Resolved]
    ):
        """Run every (plan, center) task; returns per-plan result lists
        (aligned with center order, ``None`` for failed centers) and
        per-plan :class:`CenterStatus` lists (``None`` without runtime).
        """
        tasks = [
            (pi, ci)
            for pi, plan in enumerate(plans)
            for ci in range(len(plan.centers))
        ]
        # Publish the frozen graph to shared memory before any path
        # that pickles the context for worker processes; the reference
        # is dropped in ``finally`` so no exception (including a
        # BrokenProcessPool mid-respawn) can leak the segment.
        will_fork = self.workers > 0 and (
            self.runtime is not None or len(tasks) > 1
        )
        if will_fork and ctx.publish(self.transport):
            if ctx._segment is not None and ctx._segment.refs > 1:
                self.stats["shm_reused"] += 1
            else:
                self.stats["shm_published"] += 1
        try:
            task_statuses: Optional[List[CenterStatus]] = None
            if self.runtime is not None:
                flat, task_statuses = self._execute_supervised(
                    ctx, plans, tasks, pending
                )
            else:
                self.stats["centers_computed"] += len(tasks)
                if self.workers > 0 and len(tasks) > 1:
                    flat = self._execute_parallel(ctx, plans, tasks)
                else:
                    flat = [
                        _compute_center(ctx, plans[pi], ci)
                        for pi, ci in tasks
                    ]
        finally:
            ctx.release()
        per_plan: List[List[Any]] = [[] for _ in plans]
        per_plan_statuses: Optional[List[List[CenterStatus]]] = (
            [[] for _ in plans] if task_statuses is not None else None
        )
        for ti, ((pi, _ci), result) in enumerate(zip(tasks, flat)):
            # Tasks were generated (and execution preserves) center
            # order, so appending here keeps the merge order
            # deterministic.
            per_plan[pi].append(result)
            if per_plan_statuses is not None:
                per_plan_statuses[pi].append(task_statuses[ti])
        return per_plan, per_plan_statuses

    def _execute_parallel(self, ctx, plans, tasks):
        max_workers = min(self.workers, len(tasks))
        try:
            pool = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_pool_init,
                initargs=(ctx, plans),
            )
        except (OSError, PermissionError):  # pragma: no cover - sandboxes
            # Environments that forbid subprocesses fall back to the
            # serial path; results are identical by construction.
            return [_compute_center(ctx, plans[pi], ci) for pi, ci in tasks]
        try:
            with pool:
                return list(pool.map(_pool_task, tasks))
        except BaseException:
            # An interrupted run (Ctrl-C, a worker exception) must not
            # orphan workers: cancel queued tasks and stop without
            # waiting on whatever is still executing.
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    def _execute_supervised(self, ctx, plans, tasks, pending):
        """The fault-tolerant path: journal preload + supervised run."""
        metric_names = [
            self._plan_metric_names(plan, pending) for plan in plans
        ]
        task_keys: List[Optional[str]] = [None] * len(tasks)
        preloaded: Dict[int, Any] = {}
        if self.journal is not None:
            fingerprint = graph_fingerprint(ctx.csr)
            plan_sigs = [
                self._plan_signature(fingerprint, plan, pending)
                for plan in plans
            ]
            for ti, (pi, ci) in enumerate(tasks):
                if plan_sigs[pi] is None:
                    continue
                task_keys[ti] = f"center|{plan_sigs[pi]}|{ci}"
                stored = self.journal.get(task_keys[ti])
                if stored is not None:
                    decoded = self._decode_center_result(plans[pi], stored)
                    if decoded is not None:
                        preloaded[ti] = decoded
        self.stats["centers_computed"] += len(tasks) - len(preloaded)
        self.stats["journal_skipped"] += len(preloaded)

        def on_done(ti: int, result) -> None:
            if self.journal is not None and task_keys[ti] is not None:
                pi = tasks[ti][0]
                self.journal.append(
                    task_keys[ti],
                    self._encode_center_result(plans[pi], result),
                )

        supervisor = Supervisor(self.runtime, self.workers, _compute_center)
        return supervisor.run(
            ctx, plans, tasks, metric_names, preloaded, on_done
        )

    # ------------------------------------------------------------------
    # Journal plumbing: plan signatures and center-result codecs
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_metric_names(plan: _Plan, pending: List[_Resolved]) -> Tuple[str, ...]:
        names = [pending[rid].request.name for rid in plan.distance_rids]
        for group in plan.groups:
            names.extend(member.name for member in group.members)
        return tuple(sorted(names))

    @staticmethod
    def _plan_signature(
        fingerprint: str, plan: _Plan, pending: List[_Resolved]
    ) -> Optional[str]:
        """Content hash identifying one plan across runs, or ``None``
        when the plan is not journalable (policy relationships have no
        stable content representation, exactly as in the series cache).
        """
        if plan.rels is not None:
            return None
        members: List[Tuple] = []
        for rid in plan.distance_rids:
            res = pending[rid]
            members.append(
                (
                    "distance",
                    res.request.name,
                    repr(sorted((k, repr(v)) for k, v in res.params.items())),
                )
            )
        for group in plan.groups:
            for member in group.members:
                members.append(
                    (
                        "ball",
                        member.name,
                        repr(sorted(
                            (k, repr(v)) for k, v in member.eval_params.items()
                        )),
                        group.min_ball_size,
                        group.max_ball_size,
                    )
                )
        payload = repr(
            (fingerprint, [repr(c) for c in plan.centers], sorted(members))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    @staticmethod
    def _encode_center_result(plan: _Plan, result) -> Dict[str, Any]:
        """JSON-able form of one center result.  Per-ball values are
        keyed by *metric name* (stable across runs) rather than request
        index (which depends on what the cache already served).
        """
        counts_at, group_contributions = result
        encoded_groups = []
        for group, contributions in zip(plan.groups, group_contributions):
            rid_to_name = {m.rid: m.name for m in group.members}
            encoded_groups.append(
                [
                    [
                        radius,
                        size,
                        [[rid_to_name[rid], value] for rid, value in values.items()],
                    ]
                    for radius, size, values in contributions
                ]
            )
        return {"counts": counts_at, "groups": encoded_groups}

    @staticmethod
    def _decode_center_result(plan: _Plan, stored) -> Optional[Tuple]:
        """Inverse of :meth:`_encode_center_result`; ``None`` if the
        stored payload does not match the current plan shape."""
        try:
            counts_at = stored["counts"]
            encoded_groups = stored["groups"]
            if len(encoded_groups) != len(plan.groups):
                return None
            group_contributions = []
            for group, contributions in zip(plan.groups, encoded_groups):
                name_to_rid = {m.name: m.rid for m in group.members}
                decoded = []
                for radius, size, values in contributions:
                    decoded.append(
                        (
                            int(radius),
                            int(size),
                            {name_to_rid[name]: value for name, value in values},
                        )
                    )
                group_contributions.append(decoded)
        except (KeyError, TypeError, ValueError):
            return None
        return counts_at, group_contributions

    def _attach_statuses(
        self,
        plans: List[_Plan],
        per_plan_statuses: Optional[List[List[CenterStatus]]],
        pending: List[_Resolved],
        report: RunReport,
    ) -> None:
        rid_to_plan: Dict[int, int] = {}
        for pi, plan in enumerate(plans):
            for rid in plan.distance_rids:
                rid_to_plan[rid] = pi
            for group in plan.groups:
                for member in group.members:
                    rid_to_plan[member.rid] = pi
        for rid, res in enumerate(pending):
            name = res.request.name
            if per_plan_statuses is None:
                report.metrics[name] = SeriesStatus(metric=name, source="legacy")
                continue
            statuses = per_plan_statuses[rid_to_plan[rid]]
            report.metrics[name] = SeriesStatus(
                metric=name,
                source="computed",
                states=[status.state for status in statuses],
                errors=[status.error for status in statuses],
            )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _merge(
        self,
        ctx: _ComputeContext,
        plans: List[_Plan],
        per_plan_results,
        pending: List[_Resolved],
    ) -> None:
        n = ctx.csr.number_of_nodes()
        for plan, center_results in zip(plans, per_plan_results):
            # Centers whose retries were exhausted under the supervised
            # runtime arrive as None: the series is averaged over the
            # surviving centers (the per-center status block records the
            # gap).  Without the runtime every result is present and
            # this filter is the identity, keeping legacy runs bitwise
            # identical.
            surviving = [result for result in center_results if result is not None]
            if plan.distance_rids:
                per_center_counts = [counts for counts, _groups in surviving]
                for rid in plan.distance_rids:
                    res = pending[rid]
                    res.series = _expansion_series(
                        n,
                        per_center_counts,
                        len(surviving),
                        res.params["max_ball_size"],
                    )
            for gi, group in enumerate(plan.groups):
                accs: Dict[int, Dict[int, List[float]]] = {
                    member.rid: {} for member in group.members
                }
                for _counts, group_results in surviving:
                    for radius, size, values in group_results[gi]:
                        for rid, value in values.items():
                            bucket = accs[rid].setdefault(
                                radius, [0.0, 0.0, 0]
                            )
                            bucket[0] += size
                            bucket[1] += value
                            bucket[2] += 1
                for member in group.members:
                    acc = accs[member.rid]
                    series: Series = []
                    for radius in sorted(acc):
                        sum_n, sum_value, count = acc[radius]
                        series.append((sum_n / count, sum_value / count))
                    pending[member.rid].series = series
