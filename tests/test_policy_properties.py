"""Property-based tests for valley-free policy routing invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.core import Graph
from repro.graph.kernels import BallBatch, ball_members, policy_levels
from repro.graph.traversal import bfs_distances
from repro.metrics.balls import _policy_ball_from_dag
from repro.routing.policy import (
    CUSTOMER,
    PEER,
    PROVIDER,
    Relationships,
    policy_dag,
    policy_distances,
    policy_pair_edge_fractions,
)


@st.composite
def annotated_graphs(draw):
    """Random graphs with random valley-free annotations.

    A random tree keeps most of the first ``n`` nodes mutually
    reachable; up to four more nodes form parts no source in the tree
    reaches.  With ``default_sibling`` about a fifth of the edges are
    left to the sibling default.
    """
    n = draw(st.integers(3, 14))
    seed = draw(st.integers(0, 10**6))
    default_sibling = draw(st.booleans())
    rng = random.Random(seed)
    g = Graph()
    g.add_nodes_from(range(n))
    # Random tree backbone keeps most node pairs reachable.
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    parts = draw(st.integers(0, 4))
    for i in range(n, n + parts):
        g.add_node(i)
        if i > n and rng.random() < 0.7:
            g.add_edge(i, rng.randrange(n, i))
    rels = Relationships(default_sibling=default_sibling)
    for u, v in g.iter_edges():
        kind = rng.random()
        if default_sibling and kind < 0.2:
            continue
        if kind < 0.6:
            rels.set_provider_customer(provider=max(u, v), customer=min(u, v))
        elif kind < 0.8:
            rels.set_peer(u, v)
        else:
            rels.set_sibling(u, v)
    return g, rels, rng


@settings(max_examples=60, deadline=None)
@given(annotated_graphs())
def test_policy_distance_at_least_bfs(world):
    g, rels, rng = world
    src = rng.randrange(g.number_of_nodes())
    plain = bfs_distances(g, src)
    policy = policy_distances(g, rels, src)
    assert set(policy) <= set(plain)
    for node, d in policy.items():
        assert d >= plain[node]


@settings(max_examples=60, deadline=None)
@given(annotated_graphs())
def test_policy_distance_symmetry(world):
    g, rels, rng = world
    nodes = g.nodes()
    a = nodes[rng.randrange(len(nodes))]
    b = nodes[rng.randrange(len(nodes))]
    d_ab = policy_distances(g, rels, a).get(b)
    d_ba = policy_distances(g, rels, b).get(a)
    assert d_ab == d_ba


@settings(max_examples=60, deadline=None)
@given(annotated_graphs())
def test_policy_fractions_form_distribution(world):
    """Per pair, fractions leaving the source sum to 1 and all fractions
    lie in (0, 1]."""
    g, rels, rng = world
    src = rng.randrange(g.number_of_nodes())
    dag = policy_dag(g, rels, src)
    for target in g.nodes():
        if target == src or dag.distance(target) is None:
            continue
        fractions = policy_pair_edge_fractions(dag, target)
        if not fractions:
            continue
        for value in fractions.values():
            assert 0.0 < value <= 1.0 + 1e-9
        out_of_source = sum(
            w for (a, _b), w in fractions.items() if a == src
        )
        assert abs(out_of_source - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(annotated_graphs())
def test_policy_sigma_counts_positive(world):
    g, rels, rng = world
    src = rng.randrange(g.number_of_nodes())
    dag = policy_dag(g, rels, src)
    for node in g.nodes():
        if dag.distance(node) is not None:
            assert dag.total_paths(node) >= 1


@settings(max_examples=40, deadline=None)
@given(annotated_graphs())
def test_all_sibling_policy_equals_bfs(world):
    """With every edge a sibling, policy routing degenerates to BFS."""
    g, _rels, rng = world
    siblings = Relationships(default_sibling=True)
    src = rng.randrange(g.number_of_nodes())
    assert policy_distances(g, siblings, src) == bfs_distances(g, src)


# ----------------------------------------------------------------------
# policy_levels (CSR kernel) vs the dict policy DAG
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(annotated_graphs())
def test_policy_levels_distances_match_dict(world):
    g, rels, rng = world
    csr = g.freeze()
    src = rng.randrange(g.number_of_nodes())
    dist, _arc_radius = policy_levels(csr, rels.arc_codes(csr), csr.index_of(src))
    got = {csr.node_at(i): int(d) for i, d in enumerate(dist) if d >= 0}
    assert got == policy_distances(g, rels, src)


@settings(max_examples=80, deadline=None)
@given(annotated_graphs())
def test_arc_radius_balls_match_dict_policy_balls(world):
    """At every radius the arc-filtered ball is, array for array, the
    canonical dict ball: same members in the same order, same links —
    whether the batch is sliced in one chunk or two balls at a time."""
    g, rels, rng = world
    csr = g.freeze()
    src = rng.randrange(g.number_of_nodes())
    dist, arc_radius = policy_levels(csr, rels.arc_codes(csr), csr.index_of(src))
    dag = policy_dag(g, rels, src)
    radii = list(range(int(dist.max()) + 2))
    members = [ball_members(dist, radius) for radius in radii]
    for chunk_elements in (1 << 23, 2 * csr.number_of_nodes()):
        batch = BallBatch(
            csr,
            members,
            arc_radius=arc_radius,
            radii=radii,
            chunk_elements=chunk_elements,
        )
        for i, radius in enumerate(radii):
            want = _policy_ball_from_dag(dag, radius, csr.index_of).freeze()
            got = batch.sub_csr(i)
            assert got.nodes() == want.nodes()
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.indices.tolist() == want.indices.tolist()


def _copy_annotation(rels, strict, u, v):
    rel = rels.rel(u, v)
    if rel == PROVIDER:
        strict.set_provider_customer(provider=v, customer=u)
    elif rel == CUSTOMER:
        strict.set_provider_customer(provider=u, customer=v)
    elif rel == PEER:
        strict.set_peer(u, v)
    else:
        strict.set_sibling(u, v)


def _raises_key_error(fn):
    try:
        fn()
    except KeyError:
        return True
    return False


@settings(max_examples=120, deadline=None)
@given(annotated_graphs(), st.floats(0.0, 0.3))
def test_strict_kernel_raises_exactly_when_dict_bfs_does(world, gap):
    """Strict mode: the kernel raises ``KeyError`` exactly when the dict
    BFS reaches an unannotated edge — not merely because the graph has
    one somewhere, and never for annotations on non-edges."""
    g, rels, rng = world
    strict = Relationships()
    for u, v in g.iter_edges():
        if rng.random() >= gap:
            _copy_annotation(rels, strict, u, v)
    strict.set_peer("not", "in the graph")
    nodes = g.nodes()
    a, b = rng.choice(nodes), rng.choice(nodes)
    if a != b and not g.has_edge(a, b):
        strict.set_provider_customer(provider=a, customer=b)
    csr = g.freeze()
    codes = strict.arc_codes(csr)
    src = rng.choice(nodes)
    dict_raised = _raises_key_error(lambda: policy_dag(g, strict, src))
    kernel_raised = _raises_key_error(
        lambda: policy_levels(csr, codes, csr.index_of(src))
    )
    assert kernel_raised == dict_raised
    if not dict_raised:
        dist, _ = policy_levels(csr, codes, csr.index_of(src))
        got = {csr.node_at(i): int(d) for i, d in enumerate(dist) if d >= 0}
        assert got == policy_distances(g, strict, src)


def test_strict_kernel_ignores_unreached_gaps():
    # The unannotated edge (3, 4) lies in a part the source never
    # reaches, and (0, 2) annotates a non-edge: no KeyError.
    g = Graph([(0, 1), (1, 2), (3, 4)])
    rels = Relationships()
    rels.set_provider_customer(provider=1, customer=0)
    rels.set_provider_customer(provider=1, customer=2)
    rels.set_peer(0, 2)
    csr = g.freeze()
    dist, _ = policy_levels(csr, rels.arc_codes(csr), csr.index_of(0))
    assert dist.tolist() == [0, 1, 2, -1, -1]
    # From node 3 the BFS reaches the gap and raises, as the dict BFS does.
    with pytest.raises(KeyError):
        policy_dag(g, rels, 3)
    with pytest.raises(KeyError):
        policy_levels(csr, rels.arc_codes(csr), csr.index_of(3))
