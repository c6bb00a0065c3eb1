"""Differential equivalence suite for the CSR-native metric kernels.

The kernels in :mod:`repro.graph.kernels_flow` /
:mod:`repro.graph.kernels_trees` / :mod:`repro.graph.kernels` are not
approximations: each one re-expresses the *same* canonical algorithm as
its pure-Python twin over flat arrays, so its output must be **bitwise**
identical — same integers, same final floats, same RNG draws.  The ball
metrics run through the fused batch entry points; a single graph is a
one-ball :class:`~repro.graph.kernels.FusedBatch`.  This suite enforces
that contract three ways:

* per-kernel differential tests against the dict twins on
  Hypothesis-drawn graphs (trees, connected, disconnected, bridge);
* oracle bounds: the flow kernel against both ``Dinic`` and the
  subset-enumeration min-cut oracle, with the residual-reachable side
  required to *certify* the flow value;
* structural properties: batching balls in arbitrary groups never
  changes a single byte of any per-ball result, and the int64 overflow
  fallback at the ``2**62`` capacity boundary is exact.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import kernels
from repro.graph.components import count_biconnected_components
from repro.graph.core import Graph
from repro.graph.cover import vertex_cover_size
from repro.graph.flow import Dinic
from repro.graph.kernels_flow import (
    _INT64_SAFE,
    FlowCapacityOverflow,
    _max_flow_array,
    _max_flow_bigint,
    bisection_cut_csr,
    max_flow_min_cut,
    resilience_csr_batch,
)
from repro.graph.kernels_trees import distortion_csr_batch
from repro.graph.partition import bisection_cut_size
from repro.metrics.distortion import distortion_of
from repro.metrics.resilience import resilience_of
from repro.testing import oracles
from repro.testing.strategies import (
    bridge_graphs,
    connected_graphs,
    disconnected_graphs,
    graphs,
    trees,
)

#: Every graph-shape strategy the kernels must survive.  Disconnected
#: inputs exercise the delegation paths (largest component / thaw).
ALL_SHAPES = st.one_of(
    trees(), connected_graphs(), disconnected_graphs(), bridge_graphs(), graphs()
)


# ----------------------------------------------------------------------
# Flow kernel: max_flow_min_cut vs Dinic and the subset oracle
# ----------------------------------------------------------------------

@st.composite
def flow_instances(draw):
    """A small capacitated digraph with distinct source/sink."""
    n = draw(st.integers(min_value=2, max_value=6))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                arcs.append((u, v, draw(st.integers(min_value=0, max_value=7))))
    return n, arcs


@given(flow_instances())
def test_max_flow_matches_dinic_and_oracle(instance):
    n, arcs = instance
    flow, reachable = max_flow_min_cut(n, arcs, 0, n - 1)

    dinic = Dinic(n)
    for u, v, cap in arcs:
        dinic.add_edge(u, v, float(cap))
    assert float(flow) == dinic.max_flow(0, n - 1)
    assert flow == oracles.oracle_min_st_cut(n, arcs, 0, n - 1)

    # The residual-reachable side is a *certificate*: it contains the
    # source, excludes the sink, and its crossing capacity equals the
    # flow (max-flow/min-cut duality, checked exactly in integers).
    assert reachable[0] and not reachable[n - 1]
    crossing = sum(c for u, v, c in arcs if reachable[u] and not reachable[v])
    assert crossing == flow


@given(flow_instances())
def test_array_and_bigint_solvers_agree(instance):
    n, arcs = instance
    assert _max_flow_array(n, arcs, 0, n - 1) == _max_flow_bigint(
        n, arcs, 0, n - 1
    )


@given(flow_instances())
def test_min_cut_side_is_solver_independent(instance):
    """Scaling capacities by 2**61 forces the big-int path; linearity of
    max flow and uniqueness of the inclusion-minimal source-side cut
    mean both value and side must track exactly."""
    n, arcs = instance
    flow, reachable = max_flow_min_cut(n, arcs, 0, n - 1)
    scale = 1 << 61
    big_flow, big_reach = max_flow_min_cut(
        n, [(u, v, c * scale) for u, v, c in arcs], 0, n - 1
    )
    assert big_flow == flow * scale
    assert big_reach == reachable


# ----------------------------------------------------------------------
# Overflow boundary: the int64-safe line at 2**62
# ----------------------------------------------------------------------

def test_capacity_below_boundary_stays_on_array_path():
    cap = _INT64_SAFE - 1
    assert _max_flow_array(2, [(0, 1, cap)], 0, 1) == (cap, [True, False])


def test_capacity_at_boundary_raises_then_falls_back():
    cap = _INT64_SAFE  # 2**62: first unsafe single-arc capacity
    with pytest.raises(FlowCapacityOverflow):
        _max_flow_array(2, [(0, 1, cap)], 0, 1)
    assert max_flow_min_cut(2, [(0, 1, cap)], 0, 1) == (cap, [True, False])


def test_total_capacity_overflow_raises_then_falls_back():
    # Each arc is individually safe but the total crosses 2**62.
    cap = _INT64_SAFE - 1
    arcs = [(0, 1, cap), (0, 1, cap)]
    with pytest.raises(FlowCapacityOverflow):
        _max_flow_array(2, arcs, 0, 1)
    assert max_flow_min_cut(2, arcs, 0, 1) == (2 * cap, [True, False])


def test_negative_capacity_is_rejected_by_the_array_path():
    with pytest.raises(FlowCapacityOverflow):
        _max_flow_array(2, [(0, 1, -1)], 0, 1)


# ----------------------------------------------------------------------
# Metric kernels vs. their dict twins, bitwise
# ----------------------------------------------------------------------

def one_ball(csr):
    """``csr`` as a one-ball fused batch (every node, ascending)."""
    members = np.arange(csr.number_of_nodes(), dtype=np.int64)
    return kernels.FusedBatch(kernels.BallBatch(csr, [members]))


def resilience_kernel(csr, rng):
    (value,) = resilience_csr_batch(one_ball(csr), rng=rng, trials=3)
    return value


def distortion_kernel(csr, rng):
    (value,) = distortion_csr_batch(one_ball(csr), rng=rng)
    return value


def vertex_cover_kernel(csr):
    (value,) = kernels.batch_vertex_cover_sizes(one_ball(csr))
    return value


def biconnectivity_kernel(csr):
    (value,) = kernels.batch_biconnected_counts(one_ball(csr))
    return value


@given(ALL_SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
def test_resilience_kernel_bitwise(g, seed):
    got = resilience_kernel(g.freeze(), random.Random(seed))
    want = resilience_of(g, rng=random.Random(seed), trials=3)
    assert got == want


@given(connected_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_bisection_kernel_bitwise(g, seed):
    got = bisection_cut_csr(g.freeze(), rng=random.Random(seed), trials=4)
    want = bisection_cut_size(g, rng=random.Random(seed), trials=4)
    assert got == want


@given(ALL_SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
def test_distortion_kernel_bitwise(g, seed):
    got = distortion_kernel(g.freeze(), random.Random(seed))
    want = distortion_of(g, rng=random.Random(seed))
    assert got == want


@given(trees(), st.integers(min_value=0, max_value=2**32 - 1))
def test_distortion_kernel_exact_on_trees(g, seed):
    # A tree's only spanning tree is itself: distortion is exactly 1.
    assert distortion_kernel(g.freeze(), random.Random(seed)) == 1.0


@given(ALL_SHAPES)
def test_vertex_cover_kernel_bitwise(g):
    assert vertex_cover_kernel(g.freeze()) == vertex_cover_size(g)


@given(ALL_SHAPES)
def test_biconnectivity_kernel_bitwise(g):
    assert biconnectivity_kernel(g.freeze()) == count_biconnected_components(g)


@given(graphs(min_nodes=2, max_nodes=9))
def test_vertex_cover_kernel_within_oracle_bounds(g):
    exact = oracles.oracle_min_vertex_cover_size(g)
    got = vertex_cover_kernel(g.freeze())
    assert exact <= got <= 2 * exact


# ----------------------------------------------------------------------
# Batch-splitting invariance: grouping never changes a byte
# ----------------------------------------------------------------------

def _ball_list(csr, rng):
    """A handful of balls (ascending member indices) around one center."""
    center = rng.randrange(csr.number_of_nodes())
    dist = kernels.bfs_levels(csr, center)
    return [kernels.ball_members(dist, radius) for radius in range(1, 5)]


@given(
    ALL_SHAPES,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
)
def test_ballbatch_grouping_invariance(g, seed, split_sizes):
    """Splitting the same ball list into arbitrary BallBatch groups (or
    extracting one at a time) yields byte-identical sub-CSRs."""
    rng = random.Random(seed)
    csr = g.freeze()
    balls = _ball_list(csr, rng)

    whole = kernels.BallBatch(csr, balls)
    solo = [kernels.induced_subgraph(csr, members) for members in balls]

    grouped = []
    pos = 0
    for size in split_sizes:
        if pos >= len(balls):
            break
        chunk = balls[pos : pos + size]
        batch = kernels.BallBatch(csr, chunk)
        grouped.extend(batch.sub_csr(i) for i in range(len(chunk)))
        pos += size
    while pos < len(balls):  # leftovers, one batch each
        grouped.append(kernels.BallBatch(csr, [balls[pos]]).sub_csr(0))
        pos += 1

    for i in range(len(balls)):
        for sub in (whole.sub_csr(i), grouped[i]):
            assert np.array_equal(sub.indptr, solo[i].indptr)
            assert np.array_equal(sub.indices, solo[i].indices)
            assert sub.nodes() == solo[i].nodes()


@given(
    connected_graphs(min_nodes=4, max_nodes=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ballbatch_kernel_values_grouping_invariant(g, seed):
    """Per-ball kernel *values* are identical whether the ball came from
    a shared batch or a one-ball batch — the engine may batch balls
    however it likes without perturbing a single float."""
    rng = random.Random(seed)
    csr = g.freeze()
    balls = _ball_list(csr, rng)
    shared = kernels.FusedBatch(kernels.BallBatch(csr, balls))
    singles = [
        kernels.FusedBatch(kernels.BallBatch(csr, [members]))
        for members in balls
    ]
    stream = rng.getrandbits(32)
    shared_rng, single_rng = random.Random(stream), random.Random(stream)
    assert resilience_csr_batch(shared, rng=shared_rng, trials=3) == [
        value
        for single in singles
        for value in resilience_csr_batch(single, rng=single_rng, trials=3)
    ]
    assert distortion_csr_batch(shared, rng=shared_rng) == [
        value
        for single in singles
        for value in distortion_csr_batch(single, rng=single_rng)
    ]
    assert shared_rng.getrandbits(64) == single_rng.getrandbits(64)
    assert kernels.batch_vertex_cover_sizes(shared) == [
        kernels.batch_vertex_cover_sizes(single)[0] for single in singles
    ]
    assert kernels.batch_biconnected_counts(shared) == [
        kernels.batch_biconnected_counts(single)[0] for single in singles
    ]
