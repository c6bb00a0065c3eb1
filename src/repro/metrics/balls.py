"""Ball growing — the measurement technique behind every metric
(Section 3.2.1).

"We measure some quantity in a ball of radius h and then consider how
that quantity grows as a function of h.  This allows us to compare graphs
of different sizes because, for each h, we are measuring the same sized
balls in both networks."

Plain balls contain every node within BFS distance h of the center and
the full induced subgraph.  *Policy-induced* balls (Appendix E) contain
every node within policy distance h and **only the links lying on
shortest policy-compliant paths** from the center — reproduced exactly,
including the paper's Figure 15 worked example (see
``tests/test_policy_balls.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.generators.base import Seed, make_rng
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances
from repro.routing.policy import (
    PolicyDAG,
    Relationships,
    policy_dag,
    policy_path_edges,
)

Node = Hashable
GraphLike = Union[Graph, CSRGraph]
SeriesPoint = Tuple[float, float]  # (average ball size n, average value)


def ball_nodes(graph: GraphLike, center: Node, radius: int) -> List[Node]:
    """Nodes within ``radius`` hops of ``center`` (inclusive).

    Takes either representation: on a :class:`CSRGraph` the members come
    from the vectorized BFS kernel in ascending node-index order, on a
    :class:`Graph` from the dict BFS in discovery order.  The member
    *set* is identical either way.
    """
    if isinstance(graph, CSRGraph):
        dist = kernels.bfs_levels(graph, graph.index_of(center), max_depth=radius)
        nodes = graph.node_list()
        return [nodes[int(i)] for i in np.flatnonzero(dist >= 0)]
    dist = bfs_distances(graph, center, max_depth=radius)
    return list(dist)


def ball_subgraph(graph: GraphLike, center: Node, radius: int) -> GraphLike:
    """The full induced subgraph on the ball of given radius.

    Frozen in, frozen out: a :class:`CSRGraph` input is sliced with
    :func:`repro.graph.kernels.induced_subgraph` and stays frozen.
    """
    if isinstance(graph, CSRGraph):
        dist = kernels.bfs_levels(graph, graph.index_of(center), max_depth=radius)
        return kernels.induced_subgraph(graph, kernels.ball_members(dist, radius))
    return graph.subgraph(ball_nodes(graph, center, radius))


def policy_ball_subgraph(
    graph: Graph, rels: Relationships, center: Node, radius: int
) -> Graph:
    """Appendix E's policy-induced ball.

    "a ball of radius h ... comprises nodes whose [policy] distance is
    less than or equal to h and links that lie on their policy paths to
    the center node."

    Members follow ``graph``'s node order and each adjacency set is
    filled in that order, so the ball does not depend on the order the
    policy BFS happened to discover nodes in.
    """
    dag = policy_dag(graph, rels, center)
    rank = {node: i for i, node in enumerate(graph.nodes())}
    return _policy_ball_from_dag(dag, radius, rank.__getitem__)


def _policy_ball_from_dag(
    dag: PolicyDAG, radius: int, index_of: Callable[[Node], int]
) -> Graph:
    """The policy ball of ``radius`` in canonical form.

    ``index_of`` gives each node's canonical index.  Members are
    inserted in ascending index and edges in ascending ``(index,
    index)`` order, which fills every adjacency set in ascending index
    order: the ball is built exactly as ``CSRGraph.thaw`` builds the
    CSR path's arc-filtered ball, so order-sensitive evaluators agree
    bitwise across the two paths.
    """
    distances: Dict[Node, int] = {}
    for (node, _state), d in dag.state_dist.items():
        if node not in distances or d < distances[node]:
            distances[node] = d
    members = sorted(
        (node for node, d in distances.items() if d <= radius), key=index_of
    )
    edges = [
        (u, v) if index_of(u) < index_of(v) else (v, u)
        for u, v in policy_path_edges(dag, members)
    ]
    edges.sort(key=lambda edge: (index_of(edge[0]), index_of(edge[1])))
    ball = Graph()
    ball.add_nodes_from(members)
    ball.add_edges_from(edges)
    return ball


def sample_centers(
    graph: GraphLike, count: int, seed: Seed = None
) -> List[Node]:
    """Uniformly sampled ball centers.

    The paper grows balls around *every* node but falls back to "a
    sufficiently large number of randomly chosen nodes, in order to keep
    computation times reasonable" for larger graphs — this is that
    sampler.
    """
    rng = make_rng(seed)
    nodes = graph.nodes()
    if count >= len(nodes):
        return nodes
    return rng.sample(nodes, count)


def ball_growing_series(
    graph: GraphLike,
    metric: Callable[[Graph], float],
    num_centers: int = 12,
    centers: Optional[Sequence[Node]] = None,
    max_ball_size: Optional[int] = 1500,
    min_ball_size: int = 3,
    rels: Optional[Relationships] = None,
    seed: Seed = None,
) -> List[SeriesPoint]:
    """Evaluate ``metric`` on growing balls and average per radius.

    For each center, balls of radius 1, 2, ... are grown until the ball
    stops growing or exceeds ``max_ball_size``; the metric is evaluated
    on each ball subgraph.  Per the paper, results are aggregated by
    radius: "average the sizes and resilience values of all subgraphs of
    the same radius".  Returns ``[(avg_n, avg_value), ...]`` indexed by
    radius (radius r is at position r-1 while any center contributes).

    With ``rels`` given, balls are policy-induced (Appendix E).

    This is the dict-of-sets reference implementation the engine's CSR
    path is held bitwise-equal to.  Both operate on the *canonical
    thawed* form of the graph (``freeze().thaw()``) with ball members in
    ascending node-index order — plain and policy balls alike — so the
    ball subgraphs, and every order-sensitive evaluator float, agree
    exactly across representations and implementations.
    """
    rng = make_rng(seed)
    if centers is None:
        centers = sample_centers(graph, num_centers, seed=rng)
    csr = graph if isinstance(graph, CSRGraph) else graph.freeze()
    canonical = csr.thaw()
    order = canonical.nodes()  # == node-index order

    # per-radius accumulators: radius -> (sum_n, sum_value, count)
    acc: Dict[int, List[float]] = {}
    for center in centers:
        if rels is not None:
            dag = policy_dag(canonical, rels, center)
            distances: Dict[Node, int] = {}
            for (node, _s), d in dag.state_dist.items():
                if node not in distances or d < distances[node]:
                    distances[node] = d
        else:
            dag = None
            distances = bfs_distances(canonical, center)
        max_radius = max(distances.values()) if distances else 0
        prev_size = 0
        for radius in range(1, max_radius + 1):
            members = [
                node
                for node in order
                if node in distances and distances[node] <= radius
            ]
            size = len(members)
            if size == prev_size:
                continue
            prev_size = size
            if size < min_ball_size:
                continue
            if max_ball_size is not None and size > max_ball_size:
                break
            if dag is not None:
                ball = _policy_ball_from_dag(dag, radius, csr.index_of)
            else:
                ball = canonical.subgraph(members)
            value = metric(ball)
            bucket = acc.setdefault(radius, [0.0, 0.0, 0])
            bucket[0] += size
            bucket[1] += value
            bucket[2] += 1

    series: List[SeriesPoint] = []
    for radius in sorted(acc):
        sum_n, sum_value, count = acc[radius]
        series.append((sum_n / count, sum_value / count))
    return series
