"""Performance micro-benchmarks for the core algorithms.

Unlike the figure benches (one-shot experiment regeneration), these use
pytest-benchmark's normal multi-round timing so performance regressions
in the substrate show up: BFS, the multilevel bipartition, the policy
product-graph BFS, pair-fraction accumulation, biconnectivity, and the
exact bipartite cover.  ``test_perf_synthetic_as_paper_size`` is a
one-shot wall-time guard on generating the paper-size AS graph,
``test_perf_resilience_high_diameter`` one on the resilience bisection
over the ball schedules of path- and grid-shaped graphs, and
``test_perf_policy_levels`` one on the CSR valley-free BFS kernel from
the router-level graph's ball centers.
"""

import random
import time

import pytest

from conftest import BALL_CENTERS, entry

from repro.generators import linear_chain, mesh
from repro.graph.components import count_biconnected_components
from repro.graph.kernels import (
    BallBatch,
    FusedBatch,
    ball_members,
    bfs_levels,
    policy_levels,
)
from repro.graph.kernels_flow import resilience_csr_batch
from repro.graph.flow import bipartite_vertex_cover_weight
from repro.graph.partition import bisection_cut_size
from repro.graph.traversal import bfs_distances
from repro.hierarchy import link_value_from_entries, link_traversal_sets
from repro.internet import ASGraphParams, synthetic_as_graph
from repro.metrics.balls import sample_centers
from repro.routing.policy import policy_dag
from repro.routing.shortest import pair_edge_fractions, shortest_path_dag


@pytest.fixture(scope="module")
def plrg_graph():
    return entry("PLRG").graph


@pytest.fixture(scope="module")
def as_entry():
    return entry("AS")


def test_perf_bfs(benchmark, plrg_graph):
    source = plrg_graph.nodes()[0]
    result = benchmark(bfs_distances, plrg_graph, source)
    assert len(result) == plrg_graph.number_of_nodes()


def test_perf_shortest_path_dag(benchmark, plrg_graph):
    source = plrg_graph.nodes()[0]
    dag = benchmark(shortest_path_dag, plrg_graph, source)
    assert dag.sigma[source] == 1


def test_perf_pair_fractions(benchmark, plrg_graph):
    source = plrg_graph.nodes()[0]
    dag = shortest_path_dag(plrg_graph, source)
    # The farthest node exercises the deepest backward accumulation.
    target = max(dag.dist, key=dag.dist.get)

    fractions = benchmark(pair_edge_fractions, dag, target)
    assert fractions


def test_perf_policy_dag(benchmark, as_entry):
    source = as_entry.graph.nodes()[0]
    dag = benchmark(policy_dag, as_entry.graph, as_entry.relationships, source)
    assert dag.distance(source) == 0


def test_perf_bisection(benchmark, plrg_graph):
    ball_nodes = list(bfs_distances(plrg_graph, plrg_graph.nodes()[0], 2))
    ball = plrg_graph.subgraph(ball_nodes)

    cut = benchmark(bisection_cut_size, ball)
    assert cut >= 0


def test_perf_biconnectivity(benchmark, plrg_graph):
    count = benchmark(count_biconnected_components, plrg_graph)
    assert count > 0


def test_perf_link_value_exact(benchmark):
    graph = entry("PLRG", "small").graph
    sets = link_traversal_sets(graph, seed=1)
    # The busiest link has the largest bipartite instance.
    busiest = max(sets.values(), key=len)

    value = benchmark(link_value_from_entries, busiest, exact=True)
    assert value > 0


@pytest.mark.perf
def test_perf_synthetic_as_paper_size():
    # The measured AS graph of the paper has 10,941 nodes.  Growth costs
    # one vectorised prefix-sum pass per arriving AS (about 0.6 s on a
    # 2-core x86 VM); weighting every candidate provider in Python on
    # each arrival took about 23 s there.
    start = time.perf_counter()
    asg = synthetic_as_graph(ASGraphParams(n=10941), seed=7)
    elapsed = time.perf_counter() - start
    assert asg.graph.number_of_nodes() == 10941
    assert elapsed < 5.0, f"paper-size AS growth took {elapsed:.1f} s"


#: Ball schedules for the resilience guard: (graph, center, radius step).
HIGH_DIAMETER_BALLS = {
    # Every 10th radius around the middle of a 900-node path: 45 balls
    # of 3 to 883 nodes.
    "linear_chain": (lambda: linear_chain(900), 450, 10),
    # Every radius around the center of the 30x30 mesh: 30 balls.
    "mesh": (lambda: mesh(30), 465, 1),
}


@pytest.mark.perf
@pytest.mark.parametrize("shape, bound", [("linear_chain", 1.0), ("mesh", 0.75)])
def test_perf_resilience_high_diameter(shape, bound):
    # Best of three on a 2-core x86 VM: about 0.2 s (linear_chain) and
    # 0.3 s (mesh).  With a numpy call per one- or two-node BFS frontier
    # and augmenting path, the same batches took about 2.1 s and 0.9 s.
    make, center, step = HIGH_DIAMETER_BALLS[shape]
    csr = make().freeze()
    dist = bfs_levels(csr, center)
    radii = range(1, int(dist.max()) + 1, step)
    fused = FusedBatch(BallBatch(csr, [ball_members(dist, r) for r in radii]))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        values = resilience_csr_batch(fused, rng=random.Random(1), trials=3)
        times.append(time.perf_counter() - start)
    assert len(values) == len(radii) and min(values) >= 1.0
    elapsed = min(times)
    assert elapsed < bound, f"{shape} resilience batch took {elapsed:.2f} s"


@pytest.mark.perf
def test_perf_policy_levels():
    # The RL(Policy) signature row grows its policy balls from these
    # centers of the 18,708-node router-level graph.  Best of three on a
    # 2-core x86 VM: about 0.05 s for the six kernel BFS runs; the dict
    # product-graph BFS (policy_dag) takes about 0.37 s for the same
    # six sources.
    top = entry("RL")
    csr = top.graph.freeze()
    codes = top.relationships.arc_codes(csr)
    sources = [csr.index_of(c) for c in sample_centers(csr, BALL_CENTERS, seed=1)]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reached = [policy_levels(csr, codes, s)[0] for s in sources]
        times.append(time.perf_counter() - start)
    assert all(int((dist >= 0).sum()) > 1 for dist in reached)
    elapsed = min(times)
    assert elapsed < 0.25, f"policy_levels from {len(sources)} RL centers took {elapsed:.2f} s"
