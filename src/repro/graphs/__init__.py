"""Graph workloads and structural utilities.

This package provides the graph families the paper's analysis and motivation
refer to (line graphs, line graphs of ``r``-hypergraphs, bounded-growth
graphs, claw-free graphs, the Figure 1 construction), together with the
structural property checkers used by the test-suite and the benchmark
harnesses (neighborhood independence, growth, claws, acyclic orientations).
"""

from repro.graphs.generators import (
    barabasi_albert,
    bipartite_switch,
    clique_with_pendants,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    heavy_tailed_degree_sequence,
    hypercube_graph,
    path_graph,
    planted_degree_sequence,
    random_bipartite_regular,
    random_geometric,
    random_regular,
    star_graph,
)
from repro.graphs.hypergraphs import Hypergraph, hypergraph_line_graph, random_r_hypergraph
from repro.graphs.line_graph import (
    build_line_graph_fast,
    build_line_graph_network,
    line_graph_network,
)
from repro.graphs.orientation import (
    acyclic_orientation_from_coloring,
    is_acyclic_orientation,
    longest_directed_path_length,
    max_out_degree,
)
from repro.graphs.properties import (
    degree_statistics,
    growth_function,
    has_neighborhood_independence_at_most,
    is_claw_free,
    neighborhood_independence,
)

__all__ = [
    "Hypergraph",
    "acyclic_orientation_from_coloring",
    "barabasi_albert",
    "bipartite_switch",
    "build_line_graph_fast",
    "build_line_graph_network",
    "clique_with_pendants",
    "complete_graph",
    "cycle_graph",
    "degree_statistics",
    "erdos_renyi",
    "grid_graph",
    "growth_function",
    "has_neighborhood_independence_at_most",
    "heavy_tailed_degree_sequence",
    "hypercube_graph",
    "hypergraph_line_graph",
    "is_acyclic_orientation",
    "is_claw_free",
    "line_graph_network",
    "longest_directed_path_length",
    "max_out_degree",
    "neighborhood_independence",
    "path_graph",
    "planted_degree_sequence",
    "random_bipartite_regular",
    "random_geometric",
    "random_regular",
    "star_graph",
]
