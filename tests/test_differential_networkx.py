"""Differential tests against networkx as an independent reference.

networkx shares no code with ``repro.graph``, so agreement across seeded
random topologies is strong evidence the substrate is right.  The whole
module auto-skips when networkx is not installed — it is an optional
cross-check, never a dependency.
"""

import itertools
import random

import pytest

nx = pytest.importorskip("networkx")

from repro.generators.degree_sequence import is_graphical
from repro.graph.components import articulation_points, biconnected_components
from repro.graph.flow import Dinic
from repro.graph.traversal import bfs_distances, connected_components
from repro.graph.trees import TreeIndex, bfs_tree
from repro.testing.selfcheck import random_connected_graph, random_graph

ROUNDS = 20


def to_networkx(graph):
    h = nx.Graph()
    h.add_nodes_from(graph.nodes())
    h.add_edges_from(graph.iter_edges())
    return h


def seeded_graphs(seed, connected=False):
    rng = random.Random(f"nx-diff:{seed}")
    for _ in range(ROUNDS):
        if connected:
            yield random_connected_graph(rng, 4, 14)
        else:
            yield random_graph(rng)


def test_connected_components_match():
    for g in seeded_graphs(0):
        ours = {frozenset(c) for c in connected_components(g)}
        theirs = {frozenset(c) for c in nx.connected_components(to_networkx(g))}
        assert ours == theirs


def test_bfs_distances_match():
    for g in seeded_graphs(1):
        h = to_networkx(g)
        for source in g.nodes():
            assert bfs_distances(g, source) == nx.single_source_shortest_path_length(
                h, source
            )


def test_unit_capacity_min_cut_matches():
    for g in seeded_graphs(2, connected=True):
        h = to_networkx(g)
        nodes = g.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        dinic = Dinic(len(nodes))
        for u, v in g.iter_edges():
            dinic.add_edge(index[u], index[v], 1.0)
            dinic.add_edge(index[v], index[u], 1.0)
        nx.set_edge_attributes(h, 1.0, "capacity")
        s, t = nodes[0], nodes[-1]
        assert dinic.max_flow(index[s], index[t]) == nx.minimum_cut_value(h, s, t)


def test_biconnected_components_match():
    for g in seeded_graphs(3):
        ours = {frozenset(frozenset(e) for e in comp) for comp in biconnected_components(g)}
        theirs = {
            frozenset(frozenset(e) for e in comp)
            for comp in nx.biconnected_component_edges(to_networkx(g))
        }
        assert ours == theirs


def test_articulation_points_match():
    for g in seeded_graphs(4):
        assert set(articulation_points(g)) == set(
            nx.articulation_points(to_networkx(g))
        )


def test_bfs_tree_distances_match_networkx_shortest_paths():
    """TreeIndex distances along our BFS tree must equal networkx's
    shortest-path lengths inside that same tree."""
    for g in seeded_graphs(5, connected=True):
        root = g.nodes()[0]
        parent = bfs_tree(g, root)
        index = TreeIndex(parent)
        tree = nx.Graph(
            (child, par) for child, par in parent.items() if par is not None
        )
        tree.add_node(root)
        lengths = dict(nx.all_pairs_shortest_path_length(tree))
        for u, v in itertools.combinations(g.nodes(), 2):
            assert index.distance(u, v) == lengths[u][v]
        # BFS tree depths are true graph distances from the root.
        graph_dist = nx.single_source_shortest_path_length(to_networkx(g), root)
        for node in g.nodes():
            assert index.depth(node) == graph_dist[node]


def test_is_graphical_matches_networkx():
    # networkx rejects negative degrees outright, so the sequences here are
    # non-negative; oversized degrees and odd sums are included.
    rng = random.Random("nx-diff:graphical")
    answers = set()
    for _ in range(2000):
        n = rng.randrange(0, 40)
        top = rng.choice((n // 3 + 1, n + 2))
        degrees = [rng.randrange(0, top) for _ in range(n)]
        expected = nx.is_graphical(degrees, method="eg")
        answers.add(expected)
        assert is_graphical(degrees) == expected
    assert answers == {True, False}
