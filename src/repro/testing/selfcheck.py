"""The ``repro selfcheck`` differential/fuzzing harness.

Runs eleven families of checks over seeded random inputs and reports a
single pass/fail verdict, so one command answers "are the metric
implementations still trustworthy?":

``oracle-diff``
    Production routines vs. the exhaustive oracles in
    :mod:`repro.testing.oracles` — Dinic max-flow vs. subset-enumerated
    min cut, exact bipartite cover vs. left-subset scan, heuristic
    vertex covers bounded by the exact optimum, and the resilience
    partitioner validated three ways (reported cut == recounted cut,
    balance bound respected, cut >= exact balanced optimum, with an
    aggregate optimality-rate gate).
``networkx-diff``
    Components, BFS distances, min s-t cuts, biconnected components,
    articulation points and spanning-tree distances vs. networkx
    reference implementations (skipped when networkx is absent).
``invariants``
    The metamorphic checks of :mod:`repro.testing.invariants` on random
    graphs: Graph consistency, E(h)/R(n)/D(n) paper-level facts,
    relabelling invariance.
``engine-equivalence``
    ``MetricEngine`` serial == parallel == cached == legacy (run on a
    subsample of rounds; each check spins up a process pool).
``determinism``
    Same seed -> bitwise-identical generators, metrics and engine runs.
``csr``
    The frozen :class:`~repro.graph.csr.CSRGraph` representation vs.
    the dict-of-sets oracle: freeze/thaw round-trips, vectorized BFS
    distances, ball memberships, degree vectors, shortest-path counts
    and the ``use_csr=True``/``False`` engines on plain balls and on
    policy balls of a random valley-free annotation, all identical.
``streaming``
    The streaming :class:`~repro.generators.builder.GraphBuilder` vs.
    the dict build path: every registered generator emits the identical
    edge set per seed on both paths, random chunk streams freeze
    bit-identically to ``Graph.freeze()`` regardless of chunking, and
    the builder's incremental union-find agrees with ``is_connected``.
``kernels``
    The fused CSR metric kernels vs. the dict oracles, all bitwise:
    Edmonds–Karp max-flow/min-cut vs. Dinic with the min cut
    certifying the flow, exact at any capacity, one coarsening step of
    the CSR bisection vs. the dict partitioner's on a random weighted
    level, ``bisection_cut_csr`` vs. the multilevel partitioner, every
    segmented kernel over a :class:`~repro.graph.kernels.FusedBatch`
    sliced back per ball vs. the dict oracle on the thawed ball, the
    ``distortion_csr_batch``/``resilience_csr_batch`` entry points vs.
    ``distortion_of``/``resilience_of`` under one shared RNG stream
    (same draws, same order, same final RNG state; a disconnected ball
    exercises the dict fallback), ``MetricEngine(use_csr=True)`` vs.
    ``False`` across all seven series, ``BallBatch`` sub-CSRs vs.
    per-ball induced subgraphs, and a shared-memory publish/attach
    round-trip that must be bitwise lossless and leave ``/dev/shm``
    clean.
``faults``
    The fault-tolerant runtime (:mod:`repro.runtime`): injected crashes
    and garbage results are retried to a bitwise-identical run,
    exhausted retries degrade only the faulted metric, checkpoint
    journals resume with zero recomputation, and corrupted cache
    entries are quarantined and healed.
``service``
    The ``repro serve`` daemon vs. the engine it fronts: a background
    server on a throwaway unix socket must answer ``metric`` and
    ``signature`` requests bitwise-identically to a direct
    :class:`~repro.engine.MetricEngine` computation, and a duplicate
    request must be answered from the first computation (coalesced or
    cache-served) — the provenance counters prove the engine ran the
    BFS exactly once.
``shards``
    Partitioned sweep execution (:mod:`repro.runtime.shards`): the
    round-robin partitioner is deterministic, disjoint, covering and
    balanced; a sweep split across N shards and merged back is
    **byte-identical** to the same sweep run unsharded; a corrupt
    segment record is quarantined individually without perturbing the
    merge; shard leases exclude live workers and are taken over when
    stale; and a deleted segment surfaces as explicit holes that an
    unsharded ``resume`` run then fills to the same final entries.

The harness doubles as a fuzzer: ``--rounds N`` draws N random inputs
per family from ``--seed``, so CI can run a deep nightly sweep while the
default stays fast.  Exit status is non-zero iff any check failed.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from typing import Callable, Dict, List, Optional

from repro.graph import partition as partition_mod
from repro.graph.core import Graph
from repro.graph.flow import Dinic, bipartite_vertex_cover, bipartite_vertex_cover_weight
from repro.graph.components import articulation_points, biconnected_components
from repro.graph.cover import cover_is_valid, vertex_cover_size
from repro.graph.traversal import (
    bfs_distances,
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graph.trees import bfs_tree, spanning_tree_distortion
# ``repro.metrics.resilience`` (the module) is shadowed on the package by
# the series function of the same name; bind the module itself so tests
# can monkeypatch ``resilience_mod.resilience_of``.
import importlib

resilience_mod = importlib.import_module("repro.metrics.resilience")
from repro.metrics.distortion import distortion_of
from repro.testing import invariants as invariants_mod
from repro.testing import oracles

try:  # pragma: no cover - availability depends on the environment
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None

#: Minimum fraction of oracle-diff rounds on which the resilience
#: heuristic must hit the exact balanced optimum.  The multilevel/FM
#: partitioner is a heuristic, so an occasional suboptimal cut on an
#: adversarial small graph is legitimate — but a systematic bias (e.g.
#: an off-by-one) drives the rate to zero and fails the run.
OPTIMALITY_RATE_FLOOR = 0.7


@dataclasses.dataclass
class CheckFailure:
    family: str
    round_index: int
    message: str


@dataclasses.dataclass
class FamilyReport:
    """Outcome of one check family across all rounds."""

    family: str
    checks: int = 0
    failures: List[CheckFailure] = dataclasses.field(default_factory=list)
    skipped: Optional[str] = None  # reason, when the family could not run
    # oracle-diff bookkeeping for the aggregate optimality-rate gate.
    resilience_rounds: int = 0
    optimal_rounds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclasses.dataclass
class SelfCheckReport:
    seed: int
    rounds: int
    families: List[FamilyReport] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.families)

    @property
    def total_checks(self) -> int:
        return sum(f.checks for f in self.families)

    @property
    def total_failures(self) -> int:
        return sum(len(f.failures) for f in self.families)


# ----------------------------------------------------------------------
# Random inputs (plain random.Random: selfcheck must not need hypothesis)
# ----------------------------------------------------------------------

def random_connected_graph(
    rng: random.Random, min_nodes: int = 4, max_nodes: int = 12
) -> Graph:
    """Random tree plus random chords; always connected."""
    n = rng.randint(min_nodes, max_nodes)
    g = Graph(name="selfcheck")
    g.add_node(0)
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    extra = rng.randint(0, max(1, n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        g.add_edge(u, v)  # self-loops/dupes collapse away
    return g


def random_graph(rng: random.Random, min_nodes: int = 2, max_nodes: int = 12) -> Graph:
    """Possibly disconnected: union of 1-2 connected blobs."""
    g = random_connected_graph(rng, min_nodes, max_nodes)
    if rng.random() < 0.4:
        other = random_connected_graph(rng, 2, 6)
        offset = g.number_of_nodes()
        g.add_edges_from((u + offset, v + offset) for u, v in other.iter_edges())
    return g


def random_relationships(rng: random.Random, graph: Graph):
    """A random valley-free annotation of every edge of ``graph``.

    Half the time the annotation defaults to sibling and leaves about a
    fifth of the edges unannotated (the router-level convention).
    """
    from repro.routing.policy import Relationships

    default_sibling = rng.random() < 0.5
    rels = Relationships(default_sibling=default_sibling)
    for u, v in graph.iter_edges():
        kind = rng.random()
        if default_sibling and kind < 0.2:
            continue
        if kind < 0.6:
            rels.set_provider_customer(provider=max(u, v), customer=min(u, v))
        elif kind < 0.8:
            rels.set_peer(u, v)
        else:
            rels.set_sibling(u, v)
    return rels


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

def _check_oracle_diff(rng: random.Random, report: FamilyReport) -> None:
    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    # --- Dinic max-flow vs. subset-enumerated min s-t cut -------------
    report.checks += 1
    n = rng.randint(3, 7)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.5:
                arcs.append((u, v, float(rng.randint(0, 5))))
    dinic = Dinic(n)
    for u, v, cap in arcs:
        dinic.add_edge(u, v, cap)
    flow = dinic.max_flow(0, n - 1)
    want = oracles.oracle_min_st_cut(n, arcs, 0, n - 1)
    if flow != want:
        fail(f"Dinic max_flow {flow} != oracle min cut {want} on {arcs}")

    # --- exact bipartite weighted cover vs. left-subset scan ----------
    report.checks += 1
    n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
    left = {f"l{i}": float(rng.randint(1, 9)) for i in range(n_left)}
    right = {f"r{i}": float(rng.randint(1, 9)) for i in range(n_right)}
    pairs = [
        (u, v) for u in left for v in right if rng.random() < 0.5
    ] or [(next(iter(left)), next(iter(right)))]
    got = bipartite_vertex_cover_weight(left, right, pairs)
    want = oracles.oracle_bipartite_vertex_cover_weight(left, right, pairs)
    if got != want:
        fail(f"bipartite cover weight {got} != oracle {want} on {pairs}")
    weight, cover = bipartite_vertex_cover(left, right, pairs)
    if weight != want:
        fail(f"bipartite_vertex_cover weight {weight} != oracle {want}")
    if not cover_is_valid(set(cover), pairs):
        fail(f"bipartite_vertex_cover returned an invalid cover {cover}")

    # --- heuristic unweighted cover bounded by the exact optimum ------
    report.checks += 1
    g = random_graph(rng)
    exact = oracles.oracle_min_vertex_cover_size(g)
    heuristic = vertex_cover_size(g)
    if not exact <= heuristic <= 2 * exact:
        fail(
            f"vertex_cover_size {heuristic} outside [opt, 2*opt] = "
            f"[{exact}, {2 * exact}]"
        )

    # --- resilience partitioner: identity, validity, lower bound ------
    report.checks += 1
    g = random_connected_graph(rng)
    n = g.number_of_nodes()
    stream = rng.getrandbits(32)
    cut, (side_a, side_b) = partition_mod.balanced_bipartition(
        g, rng=random.Random(stream), trials=3
    )
    value = resilience_mod.resilience_of(g, rng=random.Random(stream), trials=3)
    if value != float(cut):
        fail(
            f"resilience_of {value} != balanced_bipartition cut {cut} "
            "for the same RNG stream"
        )
    if side_a | side_b != set(g.nodes()) or side_a & side_b:
        fail("balanced_bipartition sides do not partition the node set")
    recount = oracles.count_crossing_edges(g, side_a)
    if cut != recount:
        fail(
            f"balanced_bipartition reported cut {cut} but its sides "
            f"cut {recount} edges"
        )
    bound = oracles.heuristic_balance_bound(n)
    if max(len(side_a), len(side_b)) > bound:
        fail(
            f"balanced_bipartition sides {len(side_a)}/{len(side_b)} "
            f"exceed the balance bound {bound} for n={n}"
        )
    optimum = oracles.oracle_balanced_bipartition_cut(g)
    if cut < optimum:
        fail(
            f"heuristic cut {cut} beats the exact balanced optimum "
            f"{optimum} — impossible unless a cut is miscounted"
        )
    report.optimal_rounds += cut == optimum
    report.resilience_rounds += 1

    # --- distortion heuristic bounded by the exact optimum ------------
    if g.number_of_edges() <= 12:
        report.checks += 1
        exact_d = oracles.oracle_exact_distortion(g)
        heur_d = distortion_of(g, rng=random.Random(stream))
        if heur_d < exact_d - 1e-9:
            fail(
                f"distortion heuristic {heur_d} beats the exact optimum "
                f"{exact_d} over all spanning trees"
            )
        if heur_d < 1.0:
            fail(f"distortion {heur_d} below 1 on a graph with edges")


def _finish_oracle_diff(report: FamilyReport) -> None:
    rounds = report.resilience_rounds
    if not rounds:
        return
    rate = report.optimal_rounds / rounds
    report.checks += 1
    if rate < OPTIMALITY_RATE_FLOOR:
        report.failures.append(
            CheckFailure(
                report.family,
                -1,
                f"resilience heuristic matched the exact optimum on only "
                f"{rate:.0%} of {rounds} rounds (floor "
                f"{OPTIMALITY_RATE_FLOOR:.0%}) — systematic bias",
            )
        )


def _check_networkx_diff(rng: random.Random, report: FamilyReport) -> None:
    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    g = random_graph(rng)
    nx_g = nx.Graph()
    nx_g.add_nodes_from(g.nodes())
    nx_g.add_edges_from(g.iter_edges())

    # Components.
    report.checks += 1
    ours = {frozenset(c) for c in connected_components(g)}
    theirs = {frozenset(c) for c in nx.connected_components(nx_g)}
    if ours != theirs:
        fail(f"connected components differ: {ours} vs networkx {theirs}")

    # BFS distances from a random source.
    report.checks += 1
    source = rng.choice(g.nodes())
    ours_d = bfs_distances(g, source)
    theirs_d = nx.single_source_shortest_path_length(nx_g, source)
    if ours_d != dict(theirs_d):
        fail(f"BFS distances from {source} differ from networkx")

    # Min s-t cut on a connected pair, unit capacities.
    component = largest_connected_component(g)
    comp_nodes = component.nodes()
    if len(comp_nodes) >= 2:
        report.checks += 1
        s, t = rng.sample(comp_nodes, 2)
        dinic = Dinic(g.number_of_nodes())
        index = {node: i for i, node in enumerate(g.nodes())}
        for u, v in g.iter_edges():
            dinic.add_edge(index[u], index[v], 1.0)
            dinic.add_edge(index[v], index[u], 1.0)
        ours_cut = dinic.max_flow(index[s], index[t])
        for u, v in nx_g.edges:
            nx_g[u][v]["capacity"] = 1.0
        theirs_cut = nx.minimum_cut_value(nx_g, s, t)
        if ours_cut != theirs_cut:
            fail(f"min {s}-{t} cut {ours_cut} != networkx {theirs_cut}")

    # Biconnected components and articulation points.
    report.checks += 1
    ours_bicomp = {
        frozenset(frozenset(e) for e in comp) for comp in biconnected_components(g)
    }
    theirs_bicomp = {
        frozenset(frozenset(e) for e in comp)
        for comp in nx.biconnected_component_edges(nx_g)
    }
    if ours_bicomp != theirs_bicomp:
        fail("biconnected components differ from networkx")
    if articulation_points(g) != set(nx.articulation_points(nx_g)):
        fail("articulation points differ from networkx")

    # Spanning-tree distances: TreeIndex LCA machinery vs. networkx
    # shortest paths on the materialised tree.
    report.checks += 1
    root = rng.choice(comp_nodes)
    parent = bfs_tree(component, root)
    ours_distortion = spanning_tree_distortion(component, parent)
    tree_g = nx.Graph()
    tree_g.add_nodes_from(parent)
    tree_g.add_edges_from((u, p) for u, p in parent.items() if p is not None)
    if component.number_of_edges():
        total = 0
        for u, v in component.iter_edges():
            total += nx.shortest_path_length(tree_g, u, v)
        theirs_distortion = total / component.number_of_edges()
        if abs(ours_distortion - theirs_distortion) > 1e-9:
            fail(
                f"spanning-tree distortion {ours_distortion} != networkx "
                f"{theirs_distortion}"
            )


def _check_invariants(rng: random.Random, report: FamilyReport) -> None:
    def collect(problems: List[str]) -> None:
        for problem in problems:
            report.failures.append(CheckFailure(report.family, report.checks, problem))

    g = random_graph(rng)
    report.checks += 1
    collect(invariants_mod.check_graph_invariants(g))

    connected = random_connected_graph(rng)
    from repro.engine import MetricEngine

    engine = MetricEngine(workers=0, use_cache=False)
    for metric in ("expansion", "resilience", "distortion"):
        report.checks += 1
        params = {"num_centers": 4, "seed": rng.getrandbits(16)}
        if metric != "expansion":
            params["max_ball_size"] = None
        series = engine.compute_one(connected, metric, **params)
        collect(invariants_mod.check_series_invariants(metric, series, connected))

    report.checks += 1
    collect(
        invariants_mod.check_relabeling_invariance(connected, seed=rng.getrandbits(16))
    )


def _check_engine_equivalence(rng: random.Random, report: FamilyReport) -> None:
    g = random_connected_graph(rng, 6, 14)
    report.checks += 1
    for problem in invariants_mod.check_engine_equivalence(
        g, seed=rng.getrandbits(16)
    ):
        report.failures.append(CheckFailure(report.family, report.checks, problem))


def _check_determinism(rng: random.Random, report: FamilyReport) -> None:
    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    from repro.engine import MetricEngine
    from repro.generators.plrg import plrg

    seed = rng.getrandbits(16)

    # Generators: same seed, same edge set (and same iteration order).
    report.checks += 1
    g1 = plrg(60, 2.246, seed=seed)
    g2 = plrg(60, 2.246, seed=seed)
    if g1.edges() != g2.edges() or g1.nodes() != g2.nodes():
        fail(f"plrg(seed={seed}) not reproducible")

    # Randomised metric primitives: same RNG stream, same value.
    report.checks += 1
    g = random_connected_graph(rng)
    a = resilience_mod.resilience_of(g, rng=random.Random(seed), trials=3)
    b = resilience_mod.resilience_of(g, rng=random.Random(seed), trials=3)
    if a != b:
        fail(f"resilience_of not deterministic for a fixed RNG: {a} != {b}")
    da = distortion_of(g, rng=random.Random(seed))
    db = distortion_of(g, rng=random.Random(seed))
    if da != db:
        fail(f"distortion_of not deterministic for a fixed RNG: {da} != {db}")

    # Engine: two fresh computations, bitwise identical.
    report.checks += 1
    engine = MetricEngine(workers=0, use_cache=False)
    r1 = engine.compute(g1, ["expansion", "resilience"])
    r2 = engine.compute(g1, ["expansion", "resilience"])
    if r1 != r2:
        fail("engine.compute not deterministic across identical calls")


def _check_faults(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks on the supervised runtime (repro.runtime).

    The fault injector is the probe: a run that crashes and retries must
    converge to the exact result of an unfaulted run, and every recovery
    path (retry, degradation, journal resume, cache quarantine) must be
    visible in the statuses it reports.
    """
    import os
    import tempfile

    from repro.engine import MetricEngine, MetricRequest
    from repro.runtime import (
        STATE_FAILED,
        STATE_RETRIED,
        FaultPlan,
        RuntimePolicy,
    )

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    g = random_connected_graph(rng, 8, 14)
    seed = rng.getrandbits(16)
    # Different center counts force separate engine plans, so a fault
    # aimed at one metric cannot touch the other through a shared task.
    requests = [
        MetricRequest("expansion", num_centers=5, seed=seed),
        MetricRequest("resilience", num_centers=4, max_ball_size=None, seed=seed),
    ]
    # Explicit empty plans keep these runs fault-free even when the
    # harness itself runs under a REPRO_FAULTS environment.
    no_faults = lambda: RuntimePolicy(backoff=0.0, faults=FaultPlan([]))
    baseline = MetricEngine(
        workers=0, use_cache=False, runtime=no_faults()
    ).compute(g, requests)

    # --- injected crash + garbage: retried to a bitwise-equal run -----
    report.checks += 1
    plan = FaultPlan.parse("crash:resilience:0;garbage:expansion:1")
    engine = MetricEngine(
        workers=0,
        use_cache=False,
        runtime=RuntimePolicy(retries=2, backoff=0.0, faults=plan),
    )
    healed = engine.compute(g, requests)
    run = engine.last_run
    if healed != baseline:
        fail("crash+garbage recovery did not reproduce the unfaulted run")
    if not run.ok:
        fail(f"recovered run reported degraded metrics: {run.summary()}")
    retried = sum(
        st.states.count(STATE_RETRIED) for st in run.metrics.values()
    )
    if retried != 2:
        fail(f"expected 2 retried centers (crash + garbage), saw {retried}")

    # --- exhausted retries: only the faulted metric degrades ----------
    report.checks += 1
    engine = MetricEngine(
        workers=0,
        use_cache=False,
        runtime=RuntimePolicy(
            retries=1, backoff=0.0, faults=FaultPlan.parse("crash:resilience:1:99")
        ),
    )
    partial = engine.compute(g, requests)
    run = engine.last_run
    if run.ok:
        fail("a persistently crashing center should degrade the run")
    if run.metrics["resilience"].states.count(STATE_FAILED) != 1:
        fail(
            "expected exactly one failed resilience center, states: "
            f"{run.metrics['resilience'].states}"
        )
    if partial["expansion"] != baseline["expansion"]:
        fail("a resilience-only fault perturbed the expansion series")

    # --- checkpoint journal: resume recomputes nothing, bitwise -------
    report.checks += 1
    with tempfile.TemporaryDirectory() as tmp:
        jpath = os.path.join(tmp, "journal.jsonl")
        first = MetricEngine(
            workers=0, use_cache=False, runtime=no_faults(), journal=jpath
        ).compute(g, requests)
        engine = MetricEngine(
            workers=0, use_cache=False, runtime=no_faults(), journal=jpath
        )
        second = engine.compute(g, requests)
        if second != first:
            fail("journal-resumed run differs from the original")
        if engine.stats["centers_computed"] != 0:
            fail(
                f"resume recomputed {engine.stats['centers_computed']} "
                "centers despite a complete journal"
            )

    # --- self-healing cache: corrupt entries quarantined, healed ------
    report.checks += 1
    with tempfile.TemporaryDirectory() as tmp:
        first_engine = MetricEngine(workers=0, use_cache=True, cache_dir=tmp)
        first = first_engine.compute(g, requests)
        # Entries live in hash-prefix shard subdirectories; corrupt
        # every committed one, wherever it landed.
        for dirpath, _dirnames, filenames in os.walk(tmp):
            for name in filenames:
                if name.endswith(".json"):
                    path = os.path.join(dirpath, name)
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write("~corrupt~")
        engine = MetricEngine(workers=0, use_cache=True, cache_dir=tmp)
        healed = engine.compute(g, requests)
        if healed != first:
            fail("recompute after cache corruption differs from original")
        if engine.cache.stats["quarantined"] == 0:
            fail("corrupted cache entries were read without quarantine")


def _check_csr(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks: CSR representation vs. the dict oracle.

    Every check holds for *any* graph, so inputs deliberately include
    the adversarial shapes the representation must survive: isolated
    nodes, non-integer labels, disconnected graphs.
    """
    import numpy as np

    from repro.engine import MetricEngine
    from repro.graph import kernels
    from repro.metrics.balls import ball_nodes, ball_subgraph
    from repro.routing.shortest import shortest_path_dag

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    g = random_graph(rng)
    if rng.random() < 0.5:
        g.add_node(f"iso-{rng.randrange(100)}")  # isolated, string label
    nodes = g.nodes()
    csr = g.freeze()

    # --- freeze/thaw round-trip, and thaw -> freeze bit-identical -----
    report.checks += 1
    thawed = csr.thaw()
    if thawed.nodes() != nodes:
        fail("freeze().thaw() changed the node order")
    if set(map(frozenset, thawed.iter_edges())) != set(
        map(frozenset, g.iter_edges())
    ):
        fail("freeze().thaw() changed the edge set")
    refrozen = thawed.freeze()
    if not (
        np.array_equal(refrozen.indptr, csr.indptr)
        and np.array_equal(refrozen.indices, csr.indices)
    ):
        fail("thaw().freeze() is not bit-identical to the original CSR")

    # --- degree vector ------------------------------------------------
    report.checks += 1
    deg = kernels.degree_vector(csr)
    for i, node in enumerate(nodes):
        if int(deg[i]) != g.degree(node):
            fail(f"degree_vector[{i}] != degree({node!r})")

    # --- BFS distances, bounded and unbounded -------------------------
    report.checks += 1
    sources = rng.sample(nodes, min(3, len(nodes)))
    for s in sources:
        for max_depth in (None, rng.randint(0, 4)):
            dist = kernels.bfs_levels(csr, csr.index_of(s), max_depth=max_depth)
            got = {
                csr.node_at(i): int(d)
                for i, d in enumerate(dist)
                if d != kernels.UNREACHED
            }
            want = bfs_distances(g, s, max_depth=max_depth)
            if got != want:
                fail(
                    f"bfs_levels from {s!r} (max_depth={max_depth}) "
                    "!= dict bfs_distances"
                )

    # --- multi-source distance matrix ---------------------------------
    report.checks += 1
    source_idx = [csr.index_of(s) for s in sources]
    matrix = kernels.multi_source_distances(csr, source_idx)
    for row, s in zip(matrix, sources):
        want = bfs_distances(g, s)
        got = {
            csr.node_at(i): int(d)
            for i, d in enumerate(row)
            if d != kernels.UNREACHED
        }
        if got != want:
            fail(f"multi_source_distances row for {s!r} != bfs_distances")

    # --- ball membership and induced ball subgraphs -------------------
    report.checks += 1
    center = rng.choice(nodes)
    radius = rng.randint(0, 4)
    if set(ball_nodes(csr, center, radius)) != set(ball_nodes(g, center, radius)):
        fail(f"ball members differ at center {center!r}, radius {radius}")
    sub_csr = ball_subgraph(csr, center, radius)
    sub_dict = ball_subgraph(g, center, radius)
    if set(sub_csr.nodes()) != set(sub_dict.nodes()) or set(
        map(frozenset, sub_csr.iter_edges())
    ) != set(map(frozenset, sub_dict.iter_edges())):
        fail(f"ball subgraphs differ at center {center!r}, radius {radius}")

    # --- shortest-path DAG: distances, path counts, predecessors ------
    report.checks += 1
    s = rng.choice(nodes)
    oracle_dag = shortest_path_dag(g, s)
    csr_dag = shortest_path_dag(csr, s)
    if oracle_dag.dist != csr_dag.dist:
        fail(f"CSR shortest-path distances differ from oracle (source {s!r})")
    if oracle_dag.sigma != csr_dag.sigma:
        fail(f"CSR shortest-path counts differ from oracle (source {s!r})")
    if {k: set(v) for k, v in oracle_dag.preds.items()} != {
        k: set(v) for k, v in csr_dag.preds.items()
    }:
        fail(f"CSR DAG predecessor sets differ from oracle (source {s!r})")

    # --- engine: CSR kernels vs dict oracle, bitwise ------------------
    report.checks += 1
    connected = random_connected_graph(rng)
    seed = rng.getrandbits(16)
    requests = ["expansion", "resilience", "clustering"]
    params = dict(num_centers=4, seed=seed)
    csr_engine = MetricEngine(workers=0, use_cache=False)
    dict_engine = MetricEngine(workers=0, use_cache=False, use_csr=False)
    for name in requests:
        a = csr_engine.compute_one(connected, name, **params)
        b = dict_engine.compute_one(connected, name, **params)
        if a != b:
            fail(f"engine(use_csr=True) != engine(use_csr=False) for {name}")

    # --- engine on policy balls: arc-radius kernel vs dict DAG ---------
    report.checks += 1
    annotated = random_connected_graph(rng)
    rels = random_relationships(rng, annotated)
    params = dict(num_centers=4, seed=rng.getrandbits(16), rels=rels)
    for name in ("expansion", "resilience", "distortion", "clustering"):
        a = csr_engine.compute_one(annotated, name, **params)
        b = dict_engine.compute_one(annotated, name, **params)
        if repr(a) != repr(b):
            fail(
                f"policy {name}: engine(use_csr=True) != engine(use_csr=False)"
            )


#: (registry name, build params) rotation for the streaming family:
#: cheap instances covering the chunked emitters (plrg, waxman), the
#: exact-mode consumers (glp), the node-growth models (ba), the
#: materialize-and-replay fallback (ab), and the canonical networks.
_STREAMING_CASES = [
    ("plrg", {}),
    ("ba", {}),
    ("ab", {}),
    ("glp", {}),
    ("waxman", {"alpha": 0.1, "beta": 0.3}),
    ("random", {}),
    ("tree", {}),
    ("mesh", {}),
    ("linear", {}),
]


def _edge_set(graph) -> set:
    return {frozenset((int(u), int(v))) for u, v in graph.iter_edges()}


def _check_streaming(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks: streaming GraphBuilder vs. the dict build.

    The builder is only trustworthy if the *same generator code* driving
    either sink produces the same graph — so each round replays one
    registered generator on both paths, then probes the builder's own
    machinery (chunk invariance, union-find) against dict oracles.
    """
    import numpy as np

    from repro.generators import registry as generator_registry
    from repro.generators.builder import GraphBuilder

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    # --- one registered generator, both paths, identical edge set -----
    report.checks += 1
    name, params = _STREAMING_CASES[
        rng.randrange(len(_STREAMING_CASES))
    ]
    seed = rng.getrandbits(16)
    n = rng.randint(20, 60)
    spec = generator_registry.get(name)
    dict_graph = spec.build(n, seed=seed, **params)
    csr_graph = spec.build(n, seed=seed, sink=GraphBuilder(), **params)
    if _edge_set(dict_graph) != _edge_set(csr_graph):
        fail(f"{name}(n={n}, seed={seed}): streaming edge set != dict edge set")
    if sorted(int(v) for v in dict_graph.nodes()) != sorted(
        int(v) for v in csr_graph.nodes()
    ):
        fail(f"{name}(n={n}, seed={seed}): streaming node set != dict node set")

    # --- chunk-splitting invariance vs. Graph.freeze() ----------------
    # random_connected_graph labels its nodes 0..n-1, so the builder's
    # full-graph finalize and Graph.freeze() must agree bit for bit no
    # matter how the edge stream is chunked.
    report.checks += 1
    g = random_connected_graph(rng)
    edges = [(u, v) for u, v in g.iter_edges()]
    rng.shuffle(edges)
    builder = GraphBuilder()
    builder.add_nodes_from(range(g.number_of_nodes()))
    pos = 0
    while pos < len(edges):
        take = rng.randint(1, max(1, len(edges) - pos))
        chunk = np.asarray(edges[pos : pos + take], dtype=np.int64)
        if rng.random() < 0.3:
            builder.add_edges_from(chunk.tolist())
        else:
            builder.add_chunk(chunk)
        pos += take
    streamed = builder.finalize(name=g.name)
    frozen = g.freeze()
    if not (
        np.array_equal(streamed.indptr, frozen.indptr)
        and np.array_equal(streamed.indices, frozen.indices)
    ):
        fail("chunked GraphBuilder CSR != Graph.freeze() on the same edges")

    # --- incremental union-find vs. is_connected / components ---------
    report.checks += 1
    g = random_graph(rng)
    builder = GraphBuilder()
    builder.add_nodes_from(range(g.number_of_nodes()))
    for u, v in g.iter_edges():
        builder.add_edge(u, v)
    if builder.connected() != is_connected(g):
        fail("GraphBuilder.connected() disagrees with is_connected")
    giant = builder.finalize(component="giant")
    want = largest_connected_component(g)
    if _edge_set(giant) != _edge_set(want) or sorted(
        int(v) for v in giant.nodes()
    ) != sorted(int(v) for v in want.nodes()):
        fail("GraphBuilder giant component != largest_connected_component")


def _check_kernels(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks: the fused CSR metric kernels vs. the dict oracles.

    Every check is **bitwise** — the kernels are not approximations of
    the pure-Python metric cores, they are the same canonical algorithms
    re-expressed over arrays, so any drift is a bug.  Sub-streams:

    * *flow* — Edmonds–Karp vs. Dinic (the residual side must certify
      the flow), exactness under capacities scaled past int64, one
      greedy-order coarsening step vs. the dict twin's handshake
      matching on a random weighted level, and ``bisection_cut_csr``
      vs. the dict partitioner under a shared RNG stream;
    * *segmented kernels* — every kernel over a
      :class:`~repro.graph.kernels.FusedBatch`, sliced back per ball, vs.
      the dict oracle on ``sub_csr(i).thaw()``; the whole (possibly
      disconnected) graph rides along as one ball;
    * *batch metric entry points* — ``distortion_csr_batch``/
      ``resilience_csr_batch`` vs. ``distortion_of``/``resilience_of``
      per ball under one shared RNG stream (same draws, same order, same
      final RNG state), including the disconnected-ball fallback;
    * *engine* — ``use_csr=True`` vs. ``False`` across all seven series;
    * *slicing and transport* — ``BallBatch`` sub-CSRs vs. per-ball
      induced subgraphs, and a shared-memory publish/attach round-trip
      that must be bitwise lossless and leave no live segment.
    """
    import numpy as np

    from repro.engine import MetricEngine, MetricRequest
    from repro.graph import kernels as kernels_mod
    from repro.graph import kernels_flow as flow_mod
    from repro.graph import kernels_trees as trees_mod
    from repro.graph.components import count_biconnected_components
    from repro.graph.cover import matching_vertex_cover
    from repro.runtime import shm as shm_mod

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    # --- flow: Edmonds–Karp vs. Dinic, cut certified ------------------
    report.checks += 1
    n = rng.randint(3, 7)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.5:
                arcs.append((u, v, rng.randint(0, 5)))
    flow, reachable = flow_mod.max_flow_min_cut(n, arcs, 0, n - 1)
    dinic = Dinic(n)
    for u, v, cap in arcs:
        dinic.add_edge(u, v, float(cap))
    if float(flow) != dinic.max_flow(0, n - 1):
        fail(f"max_flow_min_cut flow {flow} != Dinic on {arcs}")
    if not reachable[0] or reachable[n - 1]:
        fail("min-cut side must contain the source and exclude the sink")
    crossing = sum(c for u, v, c in arcs if reachable[u] and not reachable[v])
    if crossing != flow:
        fail(
            f"residual-reachable side cuts {crossing} capacity but the "
            f"flow is {flow} — the cut does not certify the flow"
        )

    # --- flow: exact at any capacity ----------------------------------
    # Scaling every capacity by 2**61 scales the max flow linearly and
    # preserves the (unique, inclusion-minimal) source-side min cut,
    # while pushing the totals past the int64 range.
    report.checks += 1
    scale = 1 << 61
    big_flow, big_reach = flow_mod.max_flow_min_cut(
        n, [(u, v, c * scale) for u, v, c in arcs], 0, n - 1
    )
    if big_flow != flow * scale:
        fail(
            f"capacity-scaled flow {big_flow} != scaled flow "
            f"{flow * scale}: not exact at large capacities"
        )
    if big_reach != reachable:
        fail("capacity-scaled flow returned a different min-cut side")

    # --- flow: one coarsening level vs. the dict twin -----------------
    # Greedy matching in descending edge-key order must equal the twin's
    # handshake matching; weighted nodes make the merge cap bind.
    report.checks += 1
    gl = random_graph(rng, 2, 24)  # possibly disconnected
    adj_lists, _order = gl.adjacency_lists()
    wadj = [dict() for _ in adj_lists]
    for u, nbrs in enumerate(adj_lists):
        for v in nbrs:
            if u < v:
                wadj[u][v] = wadj[v][u] = rng.randint(1, 4)
    node_w = [rng.randint(1, 4) for _ in adj_lists]
    cap = rng.randint(2, 8)

    def as_level(wadj, node_w):
        indptr = np.cumsum([0] + [len(nbrs) for nbrs in wadj])
        indices = [v for nbrs in wadj for v in sorted(nbrs)]
        weights = [nbrs[v] for nbrs in wadj for v in sorted(nbrs)]
        return tuple(
            np.asarray(x, dtype=np.int64)
            for x in (indptr, indices, weights, node_w)
        )

    coarse, mapping = flow_mod._coarsen_csr(as_level(wadj, node_w), cap)
    want_adj, want_w, want_mapping = partition_mod._coarsen(wadj, node_w, cap)
    want = as_level(want_adj, want_w)
    if mapping.tolist() != want_mapping or any(
        got.tolist() != exp.tolist() for got, exp in zip(coarse, want)
    ):
        fail(
            f"_coarsen_csr mapping or coarse level != dict _coarsen "
            f"(merge cap {cap})"
        )

    # --- flow: balanced bisection vs. the dict partitioner ------------
    report.checks += 1
    g = random_connected_graph(rng)
    stream = rng.getrandbits(32)
    got_cut = flow_mod.bisection_cut_csr(
        g.freeze(), rng=random.Random(stream), trials=3
    )
    want_cut = partition_mod.bisection_cut_size(
        g, rng=random.Random(stream), trials=3
    )
    if got_cut != want_cut:
        fail(
            f"bisection_cut_csr {got_cut} != bisection_cut_size "
            f"{want_cut} for the same RNG stream"
        )

    # --- segmented kernels: fused union sliced back == dict oracle ----
    report.checks += 1
    gd = random_graph(rng, 4, 24)  # possibly disconnected
    csr = gd.freeze()
    n = csr.number_of_nodes()
    members_list = []
    for _ in range(rng.randint(0, 4)):
        dist0 = kernels_mod.bfs_levels(csr, rng.randrange(n))
        members_list.append(kernels_mod.ball_members(dist0, rng.randint(0, 4)))
    members_list.insert(
        rng.randint(0, len(members_list)), np.arange(n, dtype=np.int64)
    )
    batch = kernels_mod.BallBatch(csr, members_list)
    fused = kernels_mod.FusedBatch(batch)
    balls = [batch.sub_csr(i).thaw() for i in range(len(batch))]
    degs = kernels_mod.fused_degrees(fused)
    sources = np.array(
        [
            int(fused.node_offsets[b]) if fused.ball_size(b) else -1
            for b in range(len(fused))
        ],
        dtype=np.int64,
    )
    dist = kernels_mod.fused_bfs_levels(fused, sources)
    counts = kernels_mod.fused_level_counts(fused, dist)
    matching = kernels_mod.batch_matching_cover_sizes(fused)
    covers = kernels_mod.batch_vertex_cover_sizes(fused)
    biconn = kernels_mod.batch_biconnected_counts(fused)
    for i, ball in enumerate(balls):
        nodes = ball.nodes()
        sl = fused.ball_slice(i)
        if degs[sl].tolist() != [ball.degree(v) for v in nodes]:
            fail(f"fused_degrees slice != dict degrees on ball {i}")
        if nodes:
            want = bfs_distances(ball, nodes[0])
            got = dist[sl].tolist()
            if got != [want.get(v, kernels_mod.UNREACHED) for v in nodes]:
                fail(f"fused_bfs_levels slice != bfs_distances on ball {i}")
            want_counts = [0] * (max(want.values()) + 1)
            for d in want.values():
                want_counts[d] += 1
            if counts[i].tolist() != want_counts:
                fail(f"fused_level_counts != bfs_distances layers on ball {i}")
        if int(matching[i]) != len(matching_vertex_cover(ball)):
            fail(f"batch_matching_cover_sizes != dict matching on ball {i}")
        if covers[i] != vertex_cover_size(ball):
            fail(f"batch_vertex_cover_sizes != vertex_cover_size on ball {i}")
        if biconn[i] != count_biconnected_components(ball):
            fail(
                f"batch_biconnected_counts != count_biconnected_components "
                f"on ball {i}"
            )

    # --- batch metric entry points: one shared RNG stream -------------
    for name, run_batch, run_dict in (
        (
            "distortion_csr_batch",
            lambda r: trees_mod.distortion_csr_batch(fused, rng=r),
            lambda ball, r: distortion_of(ball, rng=r),
        ),
        (
            "resilience_csr_batch",
            lambda r: flow_mod.resilience_csr_batch(fused, rng=r, trials=3),
            lambda ball, r: resilience_mod.resilience_of(ball, rng=r, trials=3),
        ),
    ):
        report.checks += 1
        stream = rng.getrandbits(32)
        dict_rng, batch_rng = random.Random(stream), random.Random(stream)
        want = [run_dict(ball, dict_rng) for ball in balls]
        got = run_batch(batch_rng)
        if [repr(v) for v in want] != [repr(v) for v in got]:
            fail(f"{name} {got} != dict oracle per ball {want}")
        if dict_rng.getrandbits(64) != batch_rng.getrandbits(64):
            fail(f"{name} left the RNG stream in a different state")

    # --- engine: fused CSR path == dict oracle across seven series ----
    report.checks += 1
    ge = random_connected_graph(rng, 8, 16)
    seed = rng.getrandbits(16)
    requests = [
        MetricRequest(name, num_centers=3, seed=seed)
        for name in (
            "expansion",
            "resilience",
            "distortion",
            "vertex_cover",
            "biconnectivity",
            "clustering",
            "path_length",
        )
    ]
    csr_run = MetricEngine(use_cache=False).compute(ge, requests)
    dict_run = MetricEngine(use_cache=False, use_csr=False).compute(
        ge, requests
    )
    for name in csr_run:
        if repr(csr_run[name]) != repr(dict_run[name]):
            fail(f"engine series {name!r}: use_csr=True != use_csr=False")

    # --- BallBatch: batched sub-CSRs == one-at-a-time extraction ------
    report.checks += 1
    csr = g.freeze()
    center = rng.randrange(csr.number_of_nodes())
    dist = kernels_mod.bfs_levels(csr, center)
    members_list = [
        kernels_mod.ball_members(dist, radius)
        for radius in range(1, rng.randint(2, 4) + 1)
    ]
    batch = kernels_mod.BallBatch(csr, members_list)
    for i, members in enumerate(members_list):
        batched = batch.sub_csr(i)
        solo = kernels_mod.induced_subgraph(csr, members)
        if not (
            np.array_equal(batched.indptr, solo.indptr)
            and np.array_equal(batched.indices, solo.indices)
        ):
            fail(f"BallBatch.sub_csr({i}) != induced_subgraph on ball {i}")

    # --- transport: shm publish/attach round-trip, refcounted unlink --
    report.checks += 1
    published = shm_mod.publish(csr)
    if published is None:
        report.checks -= 1  # no /dev/shm here; fall back silently
    else:
        name = published.handle.name
        attached = shm_mod.attach(published.handle)
        if not (
            np.array_equal(attached.indptr, csr.indptr)
            and np.array_equal(attached.indices, csr.indices)
            and attached.node_list() == csr.node_list()
        ):
            fail("attached shared-memory graph != published CSR")
        again = shm_mod.publish(csr)
        if again is not published:
            fail("re-publishing a live CSR must re-acquire the segment")
            if again is not None:
                again.release()
        else:
            again.release()
        published.release()
        if published.alive or name in shm_mod.active_segments():
            fail("released segment still registered as active")
        if name in shm_mod.stray_segments():
            fail(f"segment {name} leaked in /dev/shm after final release")


def _check_service(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks: the ``repro serve`` daemon vs. the engine.

    Each round boots a real background server on a throwaway unix
    socket, asks it over the wire, and compares against a direct
    :class:`~repro.engine.MetricEngine` computation on the same graph —
    **bitwise**, because the protocol's JSON floats round-trip through
    ``repr`` and the engine is deterministic per seed.  A duplicate
    request then probes the exactly-once-compute contract through the
    daemon's own provenance counters.
    """
    import os
    import tempfile

    from repro.analysis import signature as metric_signature
    from repro.analysis import signature_requests
    from repro.engine import MetricEngine
    from repro.graph.io import read_edgelist, write_edgelist
    from repro.service import ReproServer, ServiceClient

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    def points(series) -> list:
        return [(float(x), float(y)) for x, y in series]

    seed = rng.getrandbits(16)
    centers, max_ball = 4, 64
    engine = MetricEngine(workers=0, use_cache=False)
    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
        path = os.path.join(tmp, "g.edges")
        write_edgelist(random_connected_graph(rng, 8, 14), path)
        # The daemon reads the edge list off disk; the direct engine
        # must see the identical load (node order feeds center
        # sampling), exactly as `repro metric` would.
        g = read_edgelist(path)
        sock = os.path.join(tmp, "s.sock")
        server = ReproServer(
            socket_path=sock, cache_dir=os.path.join(tmp, "cache")
        )
        with server, ServiceClient(sock) as client:
            # --- metric: daemon answer == direct engine, bitwise ------
            report.checks += 1
            params = {"num_centers": centers, "seed": seed}
            got = client.metric(path, "expansion", params=params)
            want = engine.compute_one(g, "expansion", **params)
            if points(got) != points(want):
                fail(
                    f"daemon expansion series != direct engine series "
                    f"(seed={seed})"
                )

            # --- duplicate request: exactly one computation -----------
            report.checks += 1
            again = client.metric(path, "expansion", params=params)
            counters = client.status()["counters"]
            if points(again) != points(got):
                fail("repeated request returned a different series")
            if counters["series_computed"] != 1:
                fail(
                    f"duplicate request recomputed: series_computed = "
                    f"{counters['series_computed']}, want 1"
                )

            # --- signature: daemon == CLI-equivalent local run --------
            report.checks += 1
            result = client.signature(
                path, centers=centers, max_ball=max_ball, seed=seed
            )
            series = engine.compute(
                g, signature_requests(centers, max_ball, seed)
            )
            want_sig = metric_signature(
                series["expansion"],
                series["resilience"],
                series["distortion"],
                g.number_of_nodes(),
            )
            if result["signature"] != want_sig:
                fail(
                    f"daemon signature {result['signature']!r} != local "
                    f"{want_sig!r} (seed={seed})"
                )
            for name in ("expansion", "resilience", "distortion"):
                if points(result["series"][name]) != points(series[name]):
                    fail(f"daemon signature {name} series != local series")


def _check_shards(rng: random.Random, report: FamilyReport) -> None:
    """Differential checks on partitioned sweep execution.

    The oracle is the unsharded run: splitting the same sweep across N
    shards, merging the segments, and comparing *bytes* catches
    partitioner skew, merge reordering, dedup off-by-ones and dropped
    records all at once.  Lease and hole semantics are checked against
    their documented contracts.
    """
    import json as _json
    import os
    import tempfile

    from repro.harness.sweep import SWEEP_GRIDS, run_sweep
    from repro.runtime import FaultPlan, Journal, RuntimePolicy
    from repro.runtime import shards as shards_mod

    def fail(msg: str) -> None:
        report.failures.append(CheckFailure(report.family, report.checks, msg))

    # --- partitioner: deterministic, in-range, balanced ---------------
    report.checks += 1
    n_rows = rng.randint(1, 24)
    n_shards = rng.randint(1, 6)
    assignment = [shards_mod.assign_shard(i, n_shards) for i in range(n_rows)]
    if assignment != [shards_mod.assign_shard(i, n_shards) for i in range(n_rows)]:
        fail("assign_shard is not deterministic")
    if any(not 0 <= shard < n_shards for shard in assignment):
        fail(f"assign_shard left the shard range: {assignment}")
    counts = [assignment.count(k) for k in range(n_shards)]
    if counts and max(counts) - min(counts) > 1:
        fail(f"round-robin deal is unbalanced: {counts}")
    if assignment != [i % n_shards for i in range(n_rows)]:
        fail("assign_shard broke the documented i % num_shards contract")

    # --- sharded + merged == unsharded, bitwise -----------------------
    # A throwaway tiny grid keeps the rounds fast while still exercising
    # classification (and therefore center-level journal records).
    report.checks += 1
    from repro.generators import erdos_renyi

    grid_name = "selfcheck-shards"
    params = [
        {"n": rng.randint(12, 20), "p": round(rng.uniform(0.25, 0.4), 3)}
        for _ in range(3)
    ]
    SWEEP_GRIDS[grid_name] = (erdos_renyi, params)
    policy = lambda: RuntimePolicy(backoff=0.0, faults=FaultPlan([]))
    seed = rng.getrandbits(16)
    num_shards = rng.randint(2, 3)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            plain = os.path.join(tmp, "plain.jsonl")
            sharded = os.path.join(tmp, "sharded.jsonl")
            kwargs = dict(
                classify=True, num_centers=2, max_ball_size=40, seed=seed
            )
            run_sweep([grid_name], journal=plain, runtime=policy(), **kwargs)
            for k in range(num_shards):
                run = run_sweep(
                    [grid_name],
                    journal=sharded,
                    num_shards=num_shards,
                    shard_id=k,
                    runtime=policy(),
                    **kwargs,
                )
                if run.report_path is None or not os.path.isfile(run.report_path):
                    fail(f"shard {k} left no report file")
                else:
                    with open(run.report_path, encoding="utf-8") as handle:
                        shard_report = _json.load(handle)
                    if shard_report["completed_rows"] != shard_report["assigned_rows"]:
                        fail(
                            f"shard {k} report says "
                            f"{shard_report['completed_rows']}/"
                            f"{shard_report['assigned_rows']} rows done"
                        )
            merge = shards_mod.merge_segments(sharded)
            if not merge.ok:
                fail(f"clean merge reported problems: {merge.summary()}")
            if merge.merged_rows != len(params):
                fail(
                    f"merge saw {merge.merged_rows} rows, "
                    f"expected {len(params)}"
                )
            with open(plain, "rb") as handle:
                plain_bytes = handle.read()
            with open(sharded, "rb") as handle:
                merged_bytes = handle.read()
            if merged_bytes != plain_bytes:
                fail("merged shard journal is not byte-identical to unsharded")

            # --- per-record corruption quarantine ---------------------
            report.checks += 1
            segment = shards_mod.shard_segment_path(sharded, 0)
            with open(segment, "a", encoding="utf-8") as handle:
                handle.write('{"k": "torn', )
            out = os.path.join(tmp, "merged-after-corruption.jsonl")
            merge2 = shards_mod.merge_segments(sharded, out=out)
            if merge2.corrupt_lines != 1:
                fail(
                    "one appended garbage line should quarantine exactly "
                    f"one record, counted {merge2.corrupt_lines}"
                )
            with open(out, "rb") as handle:
                if handle.read() != plain_bytes:
                    fail("a torn segment tail perturbed the merge output")

            # --- holes: explicit, attributed, resume-fillable ---------
            report.checks += 1
            victim = rng.randrange(num_shards)
            os.unlink(shards_mod.shard_segment_path(sharded, victim))
            holed = os.path.join(tmp, "holed.jsonl")
            merge3 = shards_mod.merge_segments(sharded, out=holed)
            expected_holes = [
                i for i in range(len(params)) if i % num_shards == victim
            ]
            if merge3.ok:
                fail("a deleted segment merged without complaint")
            if merge3.missing_shards != [victim]:
                fail(
                    f"missing shards {merge3.missing_shards}, "
                    f"expected [{victim}]"
                )
            if [h["index"] for h in merge3.holes] != expected_holes:
                fail(
                    f"holes at {[h['index'] for h in merge3.holes]}, "
                    f"expected {expected_holes}"
                )
            if any(h["shard"] != victim for h in merge3.holes):
                fail("hole attribution does not name the missing shard")
            run_sweep(
                [grid_name], journal=holed, resume=True, runtime=policy(),
                **kwargs,
            )
            if Journal(holed).load() != Journal(plain).load():
                fail("resume over a holed merge did not restore all entries")
    finally:
        del SWEEP_GRIDS[grid_name]

    # --- leases: exclusion, release, stale takeover -------------------
    report.checks += 1
    with tempfile.TemporaryDirectory() as tmp:
        lease_path = shards_mod.shard_lease_path(
            os.path.join(tmp, "sweep.jsonl"), 0
        )
        held = shards_mod.ShardLease(lease_path, stale_after=60.0).acquire()
        rival = shards_mod.ShardLease(lease_path, stale_after=60.0)
        try:
            rival.acquire()
            fail("a second claimant acquired a live lease")
            rival.release()
        except shards_mod.LeaseHeldError:
            pass
        held.release()
        reclaimed = shards_mod.ShardLease(lease_path, stale_after=60.0)
        try:
            reclaimed.acquire()
        except shards_mod.LeaseHeldError:
            fail("a released lease could not be re-acquired")
        # Age the heartbeat past stale_after: takeover must succeed even
        # though the recorded holder pid (this process) is alive.
        stale_at = os.stat(lease_path).st_mtime - 120.0
        os.utime(lease_path, (stale_at, stale_at))
        taker = shards_mod.ShardLease(lease_path, stale_after=60.0)
        try:
            taker.acquire()
        except shards_mod.LeaseHeldError:
            fail("a stale lease (old heartbeat) was not taken over")
        finally:
            taker.release()
            reclaimed.held = False  # file already replaced by the taker


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

#: family name -> (per-round check, rounds divisor).  The divisor thins
#: expensive families: engine-equivalence spins up a process pool per
#: round, so it runs ceil(rounds / divisor) times.
_FAMILIES: Dict[str, tuple] = {
    "oracle-diff": (_check_oracle_diff, 1),
    "networkx-diff": (_check_networkx_diff, 1),
    "invariants": (_check_invariants, 2),
    "engine-equivalence": (_check_engine_equivalence, 10),
    "determinism": (_check_determinism, 2),
    "faults": (_check_faults, 3),
    "csr": (_check_csr, 1),
    "streaming": (_check_streaming, 1),
    "kernels": (_check_kernels, 1),
    "service": (_check_service, 3),
    "shards": (_check_shards, 3),
}


def run_selfcheck(
    rounds: int = 50,
    seed: int = 0,
    families: Optional[List[str]] = None,
    out: Callable[[str], None] = None,
) -> SelfCheckReport:
    """Run the selfcheck harness and return its report.

    Each family draws its inputs from an independent RNG stream derived
    from ``seed``, so adding a family never perturbs another's inputs
    and any failure is reproducible from ``(seed, rounds)`` alone.
    """
    out = out or (lambda line: print(line))
    selected = families or list(_FAMILIES)
    unknown = set(selected) - set(_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown selfcheck families {sorted(unknown)}; "
            f"available: {sorted(_FAMILIES)}"
        )
    report = SelfCheckReport(seed=seed, rounds=rounds)
    for family in selected:
        check, divisor = _FAMILIES[family]
        fam_report = FamilyReport(family=family)
        report.families.append(fam_report)
        if family == "networkx-diff" and nx is None:
            fam_report.skipped = "networkx not installed"
            out(f"[{family}] SKIPPED ({fam_report.skipped})")
            continue
        fam_rounds = max(1, rounds // divisor)
        rng = random.Random(f"selfcheck:{seed}:{family}")
        for _ in range(fam_rounds):
            check(rng, fam_report)
        if family == "oracle-diff":
            _finish_oracle_diff(fam_report)
        status = "ok" if fam_report.ok else f"{len(fam_report.failures)} FAILED"
        out(
            f"[{family}] {fam_rounds} rounds, {fam_report.checks} checks: "
            f"{status}"
        )
    verdict = "OK" if report.ok else "FAILED"
    out(
        f"selfcheck: {len(report.families)} families, "
        f"{report.total_checks} checks, {report.total_failures} failures "
        f"— {verdict} (seed={seed}, rounds={rounds})"
    )
    if not report.ok:
        out("")
        for failure in [f for fam in report.families for f in fam.failures][:20]:
            out(f"  {failure.family}[round {failure.round_index}]: {failure.message}")
    return report


def main(rounds: int = 50, seed: int = 0, families: Optional[List[str]] = None) -> int:
    """CLI entry: run and convert the report to an exit code."""
    report = run_selfcheck(rounds=rounds, seed=seed, families=families)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
