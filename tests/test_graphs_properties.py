"""Unit tests for the structural property checkers (Definition 3.1, Section 1.2)."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.graphs.hypergraphs import hypergraph_line_graph, random_r_hypergraph
from repro.graphs.properties import (
    degree_statistics,
    growth_function,
    has_neighborhood_independence_at_most,
    is_claw_free,
    neighborhood_independence,
)
from repro.local_model import FastNetwork


class TestNeighborhoodIndependence:
    def test_edgeless_graph_has_zero_independence(self, shape):
        network = shape(FastNetwork.from_adjacency({1: [], 2: [], 3: []}))
        assert neighborhood_independence(network) == 0

    def test_single_edge(self, shape):
        network = shape(FastNetwork.from_adjacency({1: [2]}))
        assert neighborhood_independence(network) == 1

    def test_clique_has_independence_one(self, shape):
        assert neighborhood_independence(shape(graphs.complete_graph(6))) == 1

    def test_star_has_independence_equal_to_leaves(self, shape):
        assert neighborhood_independence(shape(graphs.star_graph(7))) == 7

    def test_cycle_has_independence_two(self, shape):
        assert neighborhood_independence(shape(graphs.cycle_graph(8))) == 2

    def test_path_has_independence_two(self, shape):
        assert neighborhood_independence(shape(graphs.path_graph(8))) == 2

    def test_fig1_graph(self, fig1_graph, shape):
        assert neighborhood_independence(shape(fig1_graph)) == 2

    def test_bounded_check_agrees_with_exact_value(self, shape):
        for maker in (
            lambda: graphs.cycle_graph(7),
            lambda: graphs.star_graph(4),
            lambda: graphs.clique_with_pendants(5),
            lambda: graphs.grid_graph(3, 4),
        ):
            network = shape(maker())
            exact = neighborhood_independence(network)
            assert has_neighborhood_independence_at_most(network, exact)
            if exact > 0:
                assert not has_neighborhood_independence_at_most(network, exact - 1)

    def test_bounded_check_with_negative_c(self, shape):
        edgeless = shape(FastNetwork.from_adjacency({1: [], 2: []}))
        assert has_neighborhood_independence_at_most(edgeless, -1)
        edge = shape(FastNetwork.from_adjacency({1: [2]}))
        assert not has_neighborhood_independence_at_most(edge, -1)

    def test_grid_independence_is_four(self, shape):
        # An interior vertex of a grid has 4 pairwise non-adjacent neighbors.
        assert neighborhood_independence(shape(graphs.grid_graph(5, 5))) == 4


class TestClawFreeness:
    def test_line_graphs_are_claw_free(self, medium_regular, shape):
        line = graphs.build_line_graph_fast(medium_regular)
        assert is_claw_free(shape(line))

    def test_star_is_not_claw_free(self, shape):
        assert not is_claw_free(shape(graphs.star_graph(3)))

    def test_clique_is_claw_free(self, shape):
        assert is_claw_free(shape(graphs.complete_graph(5)))

    def test_grid_is_not_claw_free(self, shape):
        assert not is_claw_free(shape(graphs.grid_graph(3, 3)))


class TestGrowth:
    def test_fig1_graph_has_unbounded_growth_at_radius_two(self, shape):
        # Independence 2, but a clique vertex sees Omega(Delta) independent
        # vertices (the other pendants) at distance 2 -- the Figure 1 point.
        network = shape(graphs.clique_with_pendants(12))
        clique_vertex = ("clique", 0)
        assert neighborhood_independence(network) == 2
        assert growth_function(network, clique_vertex, radius=2) >= 11

    def test_growth_radius_zero_is_zero(self, fig1_graph, shape):
        assert growth_function(shape(fig1_graph), ("clique", 0), radius=0) == 0

    def test_growth_on_path_is_bounded(self, shape):
        path = shape(graphs.path_graph(20))
        assert growth_function(path, 10, radius=3) <= 4

    def test_growth_monotone_in_radius(self, fig1_graph, shape):
        vertex = ("clique", 1)
        network = shape(fig1_graph)
        values = [growth_function(network, vertex, radius=r) for r in range(4)]
        assert values == sorted(values)


class TestHypergraphIndependence:
    def test_line_graph_of_r_hypergraph_has_independence_at_most_r(self):
        for rank in (2, 3, 4):
            hypergraph = random_r_hypergraph(
                num_vertices=14, num_edges=20, rank=rank, seed=rank
            )
            line = hypergraph_line_graph(hypergraph)
            assert has_neighborhood_independence_at_most(line, rank)


class TestDegreeStatistics:
    def test_regular_graph_statistics(self, small_regular, shape):
        stats = degree_statistics(shape(small_regular))
        assert stats.max_degree == stats.min_degree == 4
        assert stats.average_degree == pytest.approx(4.0)
        assert stats.num_nodes == 24

    def test_empty_graph_statistics(self):
        stats = degree_statistics(FastNetwork.from_adjacency({}))
        assert stats.num_nodes == 0
        assert stats.average_degree == 0.0
