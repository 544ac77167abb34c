"""Unit tests for the Section 5 edge-coloring algorithms (Theorems 5.3 / 5.5)."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.edge_coloring import color_edges
from repro.core.parameters import params_for_few_rounds
from repro.exceptions import InvalidParameterError
from repro.verification.coloring import assert_legal_edge_coloring


WORKLOADS = [
    ("regular", lambda: graphs.random_regular(30, 6, seed=1)),
    ("erdos-renyi", lambda: graphs.erdos_renyi(30, 0.25, seed=2)),
    ("bipartite", lambda: graphs.random_bipartite_regular(12, 5, seed=3)),
    ("grid", lambda: graphs.grid_graph(5, 5)),
    ("star", lambda: graphs.star_graph(9)),
]


class TestLegality:
    @pytest.mark.parametrize("name,maker", WORKLOADS)
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    def test_superlinear_variant_is_legal(self, name, maker, route):
        network = maker()
        result = color_edges(network, quality="superlinear", route=route)
        assert_legal_edge_coloring(network, result.edge_colors)
        assert result.colors_used <= result.palette

    @pytest.mark.parametrize("name,maker", WORKLOADS[:3])
    def test_linear_variant_is_legal(self, name, maker):
        network = maker()
        result = color_edges(network, quality="linear", route="direct")
        assert_legal_edge_coloring(network, result.edge_colors)

    def test_subpolynomial_variant_is_legal(self):
        network = graphs.random_regular(24, 4, seed=5)
        result = color_edges(network, quality="subpolynomial", route="direct")
        assert_legal_edge_coloring(network, result.edge_colors)

    def test_single_edge_graph(self):
        from repro.local_model import FastNetwork

        network = FastNetwork.from_adjacency({1: [2]})
        result = color_edges(network, quality="superlinear")
        assert result.edge_colors and set(result.edge_colors.values()) == {1}

    def test_triangle(self, triangle):
        result = color_edges(triangle, quality="superlinear")
        assert_legal_edge_coloring(triangle, result.edge_colors)
        assert result.colors_used == 3


class TestResultObject:
    def test_color_lookup_in_both_endpoint_orders(self, small_regular):
        result = color_edges(small_regular, quality="superlinear")
        u, v = small_regular.edges()[0]
        assert result.color_of(u, v) == result.color_of(v, u)

    def test_line_graph_degree_recorded(self, small_regular):
        result = color_edges(small_regular, quality="superlinear")
        assert result.line_graph_max_degree <= 2 * (small_regular.max_degree - 1)

    def test_explicit_parameters_override_quality(self, small_regular):
        params = params_for_few_rounds(2 * small_regular.max_degree, c=2, p=11, b=2)
        result = color_edges(small_regular, parameters=params)
        assert result.parameters is params

    def test_unknown_route_rejected(self, small_regular):
        with pytest.raises(InvalidParameterError):
            color_edges(small_regular, route="teleport")

    def test_unknown_quality_rejected(self, small_regular):
        with pytest.raises(InvalidParameterError):
            color_edges(small_regular, quality="psychic")


class TestRoutesAndMessageSizes:
    def test_simulation_route_doubles_rounds(self, small_regular):
        direct = color_edges(small_regular, quality="superlinear", route="direct")
        simulated = color_edges(small_regular, quality="superlinear", route="simulation")
        # Lemma 5.2: the simulation pays a factor-2 (plus O(1)) round overhead
        # relative to running natively on L(G); the direct route avoids it.
        assert simulated.metrics.rounds >= direct.metrics.rounds

    def test_simulation_route_uses_large_messages(self, medium_regular):
        simulated = color_edges(medium_regular, quality="superlinear", route="simulation")
        direct = color_edges(medium_regular, quality="superlinear", route="direct")
        # Theorem 5.3 vs 5.5: the simulation needs Omega(Delta)-word messages,
        # the direct route needs only max(p, O(1)) words.
        assert simulated.metrics.max_message_words >= medium_regular.max_degree
        assert direct.metrics.max_message_words <= max(
            direct.parameters.p, 4
        )

    def test_both_routes_agree_on_palette_shape(self, small_regular):
        direct = color_edges(small_regular, quality="superlinear", route="direct")
        simulated = color_edges(small_regular, quality="superlinear", route="simulation")
        # Both are O(Delta_L^{1+eta}) bounds computed from the same preset.
        assert direct.palette <= 4 * simulated.palette + 4
        assert simulated.palette <= 4 * direct.palette + 4


class TestColorCounts:
    def test_number_of_colors_at_most_palette_bound(self):
        for _, maker in WORKLOADS:
            network = maker()
            result = color_edges(network, quality="superlinear")
            assert result.colors_used <= result.palette

    def test_at_least_delta_colors_needed_and_used(self, small_regular):
        result = color_edges(small_regular, quality="superlinear")
        # Any legal edge coloring needs at least Delta colors.
        assert result.colors_used >= small_regular.max_degree
