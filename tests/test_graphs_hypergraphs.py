"""Unit tests for r-hypergraphs and their line graphs."""

from __future__ import annotations

import pytest

from repro.exceptions import HypergraphError
from repro.graphs.hypergraphs import Hypergraph, hypergraph_line_graph, random_r_hypergraph


class TestHypergraph:
    def test_add_vertices_and_edges(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_vertex("a")
        index = hypergraph.add_edge(["a", "b", "c"])
        assert index == 0
        assert hypergraph.num_vertices == 3
        assert hypergraph.num_edges == 1
        assert hypergraph.max_edge_size() == 3

    def test_rank_bound_enforced(self):
        hypergraph = Hypergraph(rank=2)
        with pytest.raises(HypergraphError):
            hypergraph.add_edge([1, 2, 3])

    def test_unbounded_rank_allows_large_edges(self):
        hypergraph = Hypergraph()
        hypergraph.add_edge(range(10))
        assert hypergraph.max_edge_size() == 10

    def test_empty_edge_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph(rank=3).add_edge([])

    def test_vertex_degree(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2])
        hypergraph.add_edge([2, 3])
        hypergraph.add_edge([2, 4, 5])
        assert hypergraph.vertex_degree(2) == 3
        assert hypergraph.vertex_degree(1) == 1
        assert hypergraph.max_vertex_degree() == 3

    def test_duplicate_vertices_within_edge_collapse(self):
        hypergraph = Hypergraph(rank=2)
        hypergraph.add_edge([1, 1])
        assert hypergraph.max_edge_size() == 1

    def test_vertices_are_sorted_and_deduplicated(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([3, 1])
        hypergraph.add_edge([1, 2])
        assert hypergraph.vertices == (1, 2, 3)


class TestHypergraphLineGraph:
    def test_adjacency_is_vertex_sharing(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2, 3])  # edge 0
        hypergraph.add_edge([3, 4])     # edge 1 (shares vertex 3 with edge 0)
        hypergraph.add_edge([5, 6])     # edge 2 (disjoint)
        line = hypergraph_line_graph(hypergraph)
        assert line.edges() == ((0, 1),)

    def test_line_graph_node_count(self):
        hypergraph = random_r_hypergraph(num_vertices=12, num_edges=15, rank=3, seed=4)
        line = hypergraph_line_graph(hypergraph)
        assert line.num_nodes == hypergraph.num_edges

    def test_line_graph_degree_bound(self):
        # An edge of size <= r meets at most r * (max vertex degree - 1) others.
        hypergraph = random_r_hypergraph(num_vertices=12, num_edges=15, rank=3, seed=4)
        line = hypergraph_line_graph(hypergraph)
        bound = 3 * max(1, hypergraph.max_vertex_degree() - 1) + 3
        assert line.max_degree <= bound


class TestRandomHypergraph:
    def test_deterministic_given_seed(self):
        a = random_r_hypergraph(10, 12, 3, seed=2)
        b = random_r_hypergraph(10, 12, 3, seed=2)
        assert a.edges == b.edges

    def test_rank_respected(self):
        hypergraph = random_r_hypergraph(15, 30, 4, seed=1)
        assert hypergraph.max_edge_size() <= 4

    def test_exact_size_edges(self):
        hypergraph = random_r_hypergraph(15, 10, 3, seed=1, exact_size=True)
        assert all(len(edge) == 3 for edge in hypergraph.edges)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(HypergraphError):
            random_r_hypergraph(10, 5, 1, seed=1)
        with pytest.raises(HypergraphError):
            random_r_hypergraph(2, 5, 3, seed=1)
