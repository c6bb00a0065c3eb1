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
* level twins: one coarsening step and one BFS growth of the CSR
  bisection against the dict partitioner's, on random weighted levels,
  and the batched fine-level growth against the per-ball one;
* structural properties: batching balls in arbitrary groups never
  changes a single byte of any per-ball result, and the flow solver is
  exact at capacities past the int64 range.
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
from repro.graph import partition
from repro.graph.kernels_flow import (
    _coarsen_csr,
    _cut_csr,
    _flat_lists,
    _fused_grown_cuts,
    _grow_from_csr,
    _level,
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
def test_min_cut_side_is_solver_independent(instance):
    """Scaling capacities by 2**61 pushes totals past int64; linearity
    of max flow and uniqueness of the inclusion-minimal source-side cut
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
# Capacities: exact past int64, negatives rejected
# ----------------------------------------------------------------------

# The next three keep the IDs they had when an int64 array solver sat in
# front of the exact one; the boundary they probe (2**62) is now just a
# large capacity that the single solver must still get exactly right.

def test_capacity_below_boundary_stays_on_array_path():
    cap = (1 << 62) - 1
    assert max_flow_min_cut(2, [(0, 1, cap)], 0, 1) == (cap, [True, False])


def test_capacity_at_boundary_raises_then_falls_back():
    cap = 1 << 62
    assert max_flow_min_cut(2, [(0, 1, cap)], 0, 1) == (cap, [True, False])


def test_total_capacity_overflow_raises_then_falls_back():
    # Each arc fits in int64 but the total crosses 2**62.
    cap = (1 << 62) - 1
    arcs = [(0, 1, cap), (0, 1, cap)]
    assert max_flow_min_cut(2, arcs, 0, 1) == (2 * cap, [True, False])


def test_capacities_past_int64_are_exact():
    # A huge bottleneck behind a huger feeder: the bottleneck is the cut.
    big = 1 << 62
    arcs = [(0, 1, 1 << 80), (1, 2, big + 1), (0, 2, 3)]
    assert max_flow_min_cut(3, arcs, 0, 2) == (big + 4, [True, True, False])


def test_negative_capacity_is_rejected():
    with pytest.raises(ValueError, match="negative capacity"):
        max_flow_min_cut(2, [(0, 1, -1)], 0, 1)
    # Dinic, the dict twin's solver, refuses the same input.
    with pytest.raises(ValueError):
        Dinic(2).add_edge(0, 1, -1)


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
# Level twins: one coarsening step / one BFS growth vs. the dict twin
# ----------------------------------------------------------------------

@st.composite
def weighted_levels(draw):
    """A weighted level (connected or not, with cycles) as the dict
    twin's adjacency plus node weights.  Edge weights repeat often
    enough that the edge key's index tie-breaks decide, and node
    weights are heavy enough that the merge cap binds."""
    g = draw(
        st.one_of(
            connected_graphs(max_nodes=24, max_extra_edges=24),
            disconnected_graphs(),
            graphs(),
        )
    )
    adj_lists, _order = g.adjacency_lists()
    adj = [dict() for _ in adj_lists]
    for u, nbrs in enumerate(adj_lists):
        for v in nbrs:
            if u < v:
                adj[u][v] = adj[v][u] = draw(st.integers(min_value=1, max_value=4))
    node_weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=len(adj),
            max_size=len(adj),
        )
    )
    return adj, node_weights


def as_level(adj, node_weights):
    """The dict twin's level as the kernel's flat int64 arrays."""
    indptr, indices, weights = [0], [], []
    for nbrs in adj:
        for v in sorted(nbrs):
            indices.append(v)
            weights.append(nbrs[v])
        indptr.append(len(indices))
    return _level(
        *(
            np.asarray(x, dtype=np.int64)
            for x in (indptr, indices, weights, node_weights)
        )
    )


@given(weighted_levels(), st.integers(min_value=2, max_value=10))
def test_coarsen_level_twin(level, max_merge_weight):
    """Greedy-order matching equals the dict twin's handshake matching:
    same fine-to-coarse mapping, coarse node weights and coarse CSR."""
    adj, node_weights = level
    want_adj, want_w, want_mapping = partition._coarsen(
        adj, node_weights, max_merge_weight
    )
    coarse, mapping = _coarsen_csr(as_level(adj, node_weights), max_merge_weight)
    assert mapping.tolist() == want_mapping
    want = as_level(want_adj, want_w)
    for got_part, want_part in zip(coarse, want):
        assert got_part.tolist() == want_part.tolist()


@given(weighted_levels(), st.data())
def test_grow_level_twin(level, data):
    adj, node_weights = level
    start = data.draw(st.integers(min_value=0, max_value=len(adj) - 1))
    lists = _flat_lists(as_level(adj, node_weights))
    got = _grow_from_csr(lists, start)
    assert got.tolist() == partition._grow_from(adj, node_weights, start)


@given(connected_graphs(), st.data())
def test_fused_grown_starts_twin(g, data):
    """The batched fine-level grow equals the per-ball twin: on a batch
    of connected balls, every trial's fused grown side of each ball is
    ``_grow_from_csr`` from that ball's start, and its grown cut is
    ``_cut_csr`` of that side."""
    csr = g.freeze()
    balls = _ball_list(csr, random.Random(data.draw(st.integers(0, 2**16))))
    balls.append(np.arange(csr.number_of_nodes(), dtype=np.int64))
    batch = kernels.BallBatch(csr, balls)
    fused = kernels.FusedBatch(batch)
    fines = []
    for b in range(len(fused)):
        sub = batch.sub_csr(b)
        fines.append(
            _level(
                sub.indptr.astype(np.int64),
                sub.indices.astype(np.int64),
                np.ones(sub.indices.size, dtype=np.int64),
                np.ones(sub.number_of_nodes(), dtype=np.int64),
            )
        )
    for _trial in range(data.draw(st.integers(1, 3))):
        local = [
            data.draw(st.integers(0, fused.ball_size(b) - 1))
            for b in range(len(fused))
        ]
        starts = fused.node_offsets[:-1] + np.asarray(local, dtype=np.int64)
        side, cuts = _fused_grown_cuts(fused, kernels.fused_bfs_levels(fused, starts))
        for b, fine in enumerate(fines):
            want = _grow_from_csr(_flat_lists(fine), local[b])
            assert side[fused.ball_slice(b)].tolist() == want.tolist()
            assert int(cuts[b]) == _cut_csr(fine, want)


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
