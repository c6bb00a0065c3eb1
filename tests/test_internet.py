"""Tests for the synthetic Internet substrate (AS graph, RL expansion,
snapshots)."""

import pytest

from repro.generators.degree_sequence import fit_power_law_exponent
from repro.graph.traversal import is_connected
from repro.internet import (
    ASGraphParams,
    RouterExpansionParams,
    rl_core,
    snapshot_series,
    synthetic_as_graph,
    synthetic_router_graph,
)
from repro.routing.policy import CUSTOMER, PEER, PROVIDER


@pytest.fixture(scope="module")
def as_graph():
    return synthetic_as_graph(ASGraphParams(n=800), seed=1)


@pytest.fixture(scope="module")
def router_graph(as_graph):
    return synthetic_router_graph(as_graph, seed=2)


def test_as_graph_size_and_connectivity(as_graph):
    assert as_graph.graph.number_of_nodes() == 800
    assert is_connected(as_graph.graph)


def test_as_graph_heavy_tail(as_graph):
    assert as_graph.graph.max_degree() > 8 * as_graph.graph.average_degree()
    exponent = fit_power_law_exponent(as_graph.graph, k_min=2)
    assert 1.6 < exponent < 3.2


def test_as_graph_every_edge_annotated(as_graph):
    rels = as_graph.relationships
    for u, v in as_graph.graph.iter_edges():
        assert rels.rel(u, v) in (PROVIDER, CUSTOMER, PEER)
        # The two directions are consistent.
        forward, backward = rels.rel(u, v), rels.rel(v, u)
        if forward == PEER:
            assert backward == PEER
        else:
            assert {forward, backward} == {PROVIDER, CUSTOMER}


def test_as_graph_tier1_clique_peers(as_graph):
    params = ASGraphParams(n=800)
    tier1 = [n for n, t in as_graph.tier.items() if t == 0]
    assert len(tier1) == params.tier1_count
    for i, u in enumerate(tier1):
        for v in tier1[i + 1:]:
            assert as_graph.graph.has_edge(u, v)
            assert as_graph.relationships.rel(u, v) == PEER


def test_as_graph_tiers_increase_downward(as_graph):
    rels = as_graph.relationships
    for node in as_graph.graph.nodes():
        providers = rels.providers_of(node)
        if providers:
            assert as_graph.tier[node] == 1 + min(
                as_graph.tier[p] for p in providers
            )


def test_as_graph_invalid_params():
    with pytest.raises(ValueError):
        synthetic_as_graph(ASGraphParams(n=4, tier1_count=8))
    with pytest.raises(ValueError):
        synthetic_as_graph(ASGraphParams(multihome_probs=(0.5, 0.4)))


def test_router_graph_expansion_ratio(as_graph, router_graph):
    ratio = router_graph.graph.number_of_nodes() / as_graph.graph.number_of_nodes()
    assert 3.0 <= ratio <= 40.0  # paper's RL/AS ratio is ~17x
    assert is_connected(router_graph.graph)


def test_router_graph_as_bookkeeping(as_graph, router_graph):
    # Every router belongs to exactly one AS; every AS has routers.
    assert set(router_graph.router_as) == set(router_graph.graph.nodes())
    assert set(router_graph.as_routers) == set(as_graph.graph.nodes())
    for asn, routers in router_graph.as_routers.items():
        for r in routers:
            assert router_graph.router_as[r] == asn


def test_router_graph_intra_as_connected(router_graph):
    # Each AS's router set induces a connected subgraph.
    from repro.graph.traversal import is_connected as conn

    checked = 0
    for asn, routers in router_graph.as_routers.items():
        if len(routers) > 1:
            assert conn(router_graph.graph.subgraph(routers))
            checked += 1
        if checked >= 50:
            break
    assert checked > 0


def test_router_graph_sibling_default(router_graph):
    # Intra-AS links are siblings (unannotated -> default).
    for asn, routers in router_graph.as_routers.items():
        if len(routers) >= 2:
            sub = router_graph.graph.subgraph(routers)
            u, v = next(iter(sub.iter_edges()))
            assert router_graph.relationships.rel(u, v) == "sibling"
            break


def test_router_counts_scale_with_as_degree(as_graph, router_graph):
    big_as = max(as_graph.graph.nodes(), key=as_graph.graph.degree)
    small_as = min(as_graph.graph.nodes(), key=as_graph.graph.degree)
    assert len(router_graph.as_routers[big_as]) > len(
        router_graph.as_routers[small_as]
    )


def test_rl_core_strips_leaves(router_graph):
    core = rl_core(router_graph.graph)
    assert core.number_of_nodes() < router_graph.graph.number_of_nodes()
    assert all(core.degree(n) >= 2 for n in core.nodes())


def test_rl_core_of_tree_is_empty():
    from repro.generators.canonical import kary_tree

    core = rl_core(kary_tree(2, 4))
    assert core.number_of_nodes() == 0


def test_snapshot_series_grows():
    snaps = snapshot_series(sizes=(200, 300), labels=("t0", "t1"), seed=3)
    assert len(snaps) == 2
    assert (
        snaps[0].as_graph.graph.number_of_nodes()
        < snaps[1].as_graph.graph.number_of_nodes()
    )
    assert snaps[0].label == "t0"


def test_snapshot_series_length_mismatch():
    with pytest.raises(ValueError):
        snapshot_series(sizes=(100,), labels=("a", "b"))


def test_as_growth_is_a_prefix_of_larger_growth():
    # Growth draws from the RNG independently of n, so the first 300
    # arrivals of a 900-node graph match a 300-node graph exactly.  This
    # pins the provider weights seen by every arrival, not only the final
    # ones, to depend on earlier arrivals alone and never on n (the
    # golden digests in test_generation_pins pin their values).
    small = synthetic_as_graph(ASGraphParams(n=300), seed=11)
    large = synthetic_as_graph(ASGraphParams(n=900), seed=11)

    def transit_links(asg, limit):
        rels = asg.relationships
        edges = {(min(e), max(e)) for e in asg.graph.iter_edges()}
        return {
            (u, v, rels.rel(u, v))
            for u, v in edges
            if v < limit and rels.rel(u, v) != PEER
        }

    links = transit_links(small, 300)
    assert len(links) > 300
    assert transit_links(large, 300) == links
    assert {node: large.tier[node] for node in range(300)} == small.tier
