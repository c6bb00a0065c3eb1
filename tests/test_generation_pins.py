"""Golden digests of generator outputs, pinned so that speed work on the
generation path cannot change a graph.

Each digest was recorded from the quadratic reference loops (per-arrival
Python provider weighting in AS growth, the O(n^2) Erdős–Gallai test in
Inet's feasibility check, the uniform wiring that spins to its stale
limit) and must never be regenerated: a mismatch means a generator's
output changed for a fixed seed.
"""

import hashlib

import pytest

from repro.generators.barabasi_albert import barabasi_albert
from repro.generators.brite import brite
from repro.generators.degree_sequence import rewire_with_method
from repro.generators.inet import inet
from repro.internet import ASGraphParams, synthetic_as_graph


def _edge_lines(graph):
    # Sorted as strings: the order the pinned digests were recorded in.
    return sorted(
        "%d %d" % (min(u, v), max(u, v)) for u, v in graph.iter_edges()
    )


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def graph_digest(graph):
    """Node order plus the sorted undirected edge list."""
    nodes = " ".join(str(node) for node in graph.nodes())
    return _sha([nodes] + _edge_lines(graph))


def as_digest(asg):
    """Node order, sorted edges, tiers and each edge's relationship."""
    graph, rels = asg.graph, asg.relationships
    lines = [" ".join(str(node) for node in graph.nodes())]
    for line in _edge_lines(graph):
        u, v = map(int, line.split())
        lines.append("%s %s %s" % (line, rels.rel(u, v), rels.rel(v, u)))
    lines += ["t %d %d" % (node, t) for node, t in sorted(asg.tier.items())]
    return _sha(lines)


AS_PINS = {
    (160, 7): "f639fcba3e7f3557c6d59de855478f3fffc5139ce3898951d9e231719ea1b2db",
    (800, 1): "f3cbaf99b6528d9b4a180b63e92b86ea13a423fa2af02b651dc104e32048395d",
    (2200, 7): "51bc3060726033ab24d0ab89e1d03c16c2209ac78fb208dfd7a7aa220da25b78",
}

UNIFORM_PINS = {
    "B-A": "8048927ac41bd643ce174707d384024cd1174155741cdfc8b0ce890c38ce7267",
    "Brite": "aab251c557132322249541689256cb51d367bb8ced954fd5a62b8700b40d1eb2",
}

INET_PINS = {
    1: "26ab1c98167291da08cb2cf35af80bb0858ccf84308e40eb1d169e62d0a15996",
    5: "c3cbf73cf105c8748e1d0d13b2cc0a31ffb84817a0130c71227ca09b02d3a0de",
}


@pytest.mark.parametrize("n,seed", sorted(AS_PINS))
def test_synthetic_as_graph_pinned(n, seed):
    asg = synthetic_as_graph(ASGraphParams(n=n), seed=seed)
    assert asg.graph.number_of_nodes() == n
    assert as_digest(asg) == AS_PINS[(n, seed)]


@pytest.mark.parametrize("base", sorted(UNIFORM_PINS))
def test_uniform_rewiring_pinned(base):
    build = barabasi_albert if base == "B-A" else brite
    graph = build(470, 2, seed=3)
    rewired = rewire_with_method(graph, "uniform", seed=4)
    assert graph_digest(rewired) == UNIFORM_PINS[base]


@pytest.mark.parametrize("seed", sorted(INET_PINS))
def test_inet_pinned(seed):
    assert graph_digest(inet(n=600, seed=seed)) == INET_PINS[seed]
