"""Unit tests for the workload graph generators."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.graphs.properties import (
    has_neighborhood_independence_at_most,
    neighborhood_independence,
)


class TestFigure1Graph:
    def test_size_and_degree(self):
        network = graphs.clique_with_pendants(8)
        assert network.num_nodes == 16
        assert network.max_degree == 8  # 7 clique neighbors + 1 pendant

    def test_neighborhood_independence_is_two(self):
        network = graphs.clique_with_pendants(6)
        assert neighborhood_independence(network) == 2

    def test_pendants_have_degree_one(self):
        network = graphs.clique_with_pendants(5)
        pendants = [node for node in network.nodes() if node[0] == "pendant"]
        assert len(pendants) == 5
        degree = dict(zip(network.nodes(), network.degrees_np.tolist()))
        assert all(degree[node] == 1 for node in pendants)

    def test_single_vertex_clique(self):
        network = graphs.clique_with_pendants(1)
        assert network.num_nodes == 2
        assert network.num_edges == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            graphs.clique_with_pendants(0)


class TestBasicFamilies:
    def test_complete_graph(self):
        network = graphs.complete_graph(6)
        assert network.num_edges == 15
        assert network.max_degree == 5

    def test_path_and_cycle(self):
        path = graphs.path_graph(7)
        cycle = graphs.cycle_graph(7)
        assert path.num_edges == 6
        assert cycle.num_edges == 7
        assert path.max_degree == 2
        assert cycle.max_degree == 2

    def test_cycle_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            graphs.cycle_graph(2)

    def test_star_graph_structure(self):
        star = graphs.star_graph(6)
        assert star.num_nodes == 7
        assert star.max_degree == 6
        assert neighborhood_independence(star) == 6

    def test_grid_is_bounded_growth_like(self):
        grid = graphs.grid_graph(5, 5)
        assert grid.num_nodes == 25
        assert grid.max_degree == 4

    def test_hypercube(self):
        cube = graphs.hypercube_graph(4)
        assert cube.num_nodes == 16
        assert cube.max_degree == 4

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(InvalidParameterError):
            graphs.grid_graph(0, 3)
        with pytest.raises(InvalidParameterError):
            graphs.hypercube_graph(0)
        with pytest.raises(InvalidParameterError):
            graphs.path_graph(0)
        with pytest.raises(InvalidParameterError):
            graphs.complete_graph(0)
        with pytest.raises(InvalidParameterError):
            graphs.star_graph(0)


class TestRandomFamilies:
    def test_random_regular_degree_exact(self):
        network = graphs.random_regular(30, 5, seed=3)
        assert (network.degrees_np == 5).all()

    def test_random_regular_deterministic_given_seed(self):
        a = graphs.random_regular(20, 3, seed=9)
        b = graphs.random_regular(20, 3, seed=9)
        assert a.edges() == b.edges()

    def test_random_regular_zero_degree(self):
        network = graphs.random_regular(10, 0, seed=1)
        assert network.num_edges == 0

    def test_random_regular_parity_validation(self):
        with pytest.raises(InvalidParameterError):
            graphs.random_regular(9, 3, seed=1)
        with pytest.raises(InvalidParameterError):
            graphs.random_regular(5, 5, seed=1)

    def test_erdos_renyi_bounds(self):
        empty = graphs.erdos_renyi(20, 0.0, seed=1)
        full = graphs.erdos_renyi(10, 1.0, seed=1)
        assert empty.num_edges == 0
        assert full.num_edges == 45
        with pytest.raises(InvalidParameterError):
            graphs.erdos_renyi(10, 1.5, seed=1)

    def test_barabasi_albert_graph(self):
        network = graphs.barabasi_albert(40, 3, seed=2)
        assert network.num_nodes == 40
        assert network.num_edges == 3 * (40 - 3)
        with pytest.raises(InvalidParameterError):
            graphs.barabasi_albert(5, 5, seed=2)

    def test_bipartite_regular_is_bipartite_and_near_regular(self):
        network = graphs.random_bipartite_regular(12, 4, seed=5)
        assert network.num_nodes == 24
        for u, v in network.edges():
            assert u[0] != v[0]
        assert network.max_degree <= 4
        with pytest.raises(InvalidParameterError):
            graphs.random_bipartite_regular(4, 5, seed=1)


class TestLineGraphsOfGeneratedGraphs:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: graphs.random_regular(16, 4, seed=1),
            lambda: graphs.erdos_renyi(16, 0.3, seed=2),
            lambda: graphs.clique_with_pendants(5),
            lambda: graphs.grid_graph(4, 4),
        ],
    )
    def test_line_graph_independence_at_most_two(self, maker):
        network = maker()
        line = graphs.build_line_graph_fast(network)
        assert has_neighborhood_independence_at_most(line, 2)
