"""Graph substrate: data structure and the graph algorithms the paper's
metrics are built on.

Everything here is implemented from scratch (no networkx dependency at
runtime); ``repro.graph.convert`` offers an optional bridge for users who
want to move graphs in and out of networkx.
"""

from repro.graph.core import Graph
from repro.graph.csr import CSR_LAYOUT_VERSION, CSRGraph, csr_from_graph
from repro.graph.kernels import (
    BallBatch,
    FusedBatch,
    ball_members,
    batch_biconnected_counts,
    batch_matching_cover_sizes,
    batch_vertex_cover_sizes,
    bfs_levels,
    bfs_with_path_counts,
    degree_vector,
    fused_bfs_levels,
    fused_degrees,
    fused_level_counts,
    induced_subgraph,
    multi_source_distances,
)
from repro.graph.kernels_flow import (
    FlowCapacityOverflow,
    bisection_cut_csr,
    max_flow_min_cut,
    resilience_csr_batch,
)
from repro.graph.kernels_trees import distortion_csr_batch
from repro.graph.traversal import (
    bfs_distances,
    bfs_layers,
    bfs_parents,
    connected_components,
    is_connected,
    largest_connected_component,
    shortest_path,
    shortest_path_length,
)
from repro.graph.components import (
    articulation_points,
    biconnected_components,
    count_biconnected_components,
)
from repro.graph.trees import (
    bfs_tree,
    tree_distance,
    TreeIndex,
)
from repro.graph.partition import balanced_bipartition, bisection_cut_size
from repro.graph.flow import Dinic, bipartite_vertex_cover_weight
from repro.graph.cover import greedy_vertex_cover, local_ratio_vertex_cover
from repro.graph.spectral import (
    adjacency_spectrum,
    laplacian_one_multiplicity,
    laplacian_spectrum,
    top_eigenvalues,
)
from repro.graph.cores import (
    core_numbers,
    coreness_distribution,
    k_core,
    max_coreness,
)
from repro.graph.weighted import (
    dijkstra,
    random_edge_weights,
    total_variation_distance,
    weighted_hop_count_distribution,
)

__all__ = [
    "Graph",
    "CSRGraph",
    "csr_from_graph",
    "CSR_LAYOUT_VERSION",
    "bfs_levels",
    "multi_source_distances",
    "bfs_with_path_counts",
    "ball_members",
    "degree_vector",
    "induced_subgraph",
    "BallBatch",
    "FusedBatch",
    "fused_bfs_levels",
    "fused_degrees",
    "fused_level_counts",
    "batch_matching_cover_sizes",
    "batch_vertex_cover_sizes",
    "batch_biconnected_counts",
    "FlowCapacityOverflow",
    "max_flow_min_cut",
    "bisection_cut_csr",
    "resilience_csr_batch",
    "distortion_csr_batch",
    "bfs_distances",
    "bfs_layers",
    "bfs_parents",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "shortest_path",
    "shortest_path_length",
    "articulation_points",
    "biconnected_components",
    "count_biconnected_components",
    "bfs_tree",
    "tree_distance",
    "TreeIndex",
    "balanced_bipartition",
    "bisection_cut_size",
    "Dinic",
    "bipartite_vertex_cover_weight",
    "greedy_vertex_cover",
    "local_ratio_vertex_cover",
    "adjacency_spectrum",
    "laplacian_one_multiplicity",
    "laplacian_spectrum",
    "top_eigenvalues",
    "core_numbers",
    "coreness_distribution",
    "k_core",
    "max_coreness",
    "dijkstra",
    "random_edge_weights",
    "total_variation_distance",
    "weighted_hop_count_distribution",
]
