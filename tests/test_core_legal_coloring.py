"""Unit tests for Procedure Legal-Color (Algorithm 2, Theorems 4.5-4.8)."""

from __future__ import annotations

import pytest

from graph_oracles import line_graph_network

from repro import graphs
from repro.core.legal_coloring import color_vertices, run_legal_coloring
from repro.core.parameters import params_for_few_rounds, params_for_linear_colors
from repro.exceptions import InvalidParameterError
from repro.verification.coloring import assert_legal_vertex_coloring, max_color


class TestQualityPresets:
    @pytest.mark.parametrize("quality", ["linear", "superlinear", "subpolynomial"])
    def test_legal_coloring_on_fig1_graph(self, quality):
        network = graphs.clique_with_pendants(12)
        result = color_vertices(network, c=2, quality=quality)
        assert_legal_vertex_coloring(network, result.colors)
        assert max_color(result.colors) <= result.palette

    @pytest.mark.parametrize("quality", ["linear", "superlinear"])
    def test_legal_coloring_on_line_graph(self, quality):
        base = graphs.random_regular(30, 6, seed=1)
        line = line_graph_network(base)
        result = color_vertices(line, c=2, quality=quality)
        assert_legal_vertex_coloring(line, result.colors)
        assert max_color(result.colors) <= result.palette

    def test_unknown_quality_rejected(self, fig1_graph):
        with pytest.raises(InvalidParameterError):
            color_vertices(fig1_graph, c=2, quality="perfect")

    def test_claw_free_graph(self):
        # Line graphs are claw-free; reuse one as a claw-free workload.
        base = graphs.erdos_renyi(24, 0.25, seed=5)
        line = line_graph_network(base)
        result = color_vertices(line, c=2, quality="superlinear")
        assert_legal_vertex_coloring(line, result.colors)

    def test_hypergraph_line_graph_with_c_three(self):
        from repro.graphs.hypergraphs import hypergraph_line_graph, random_r_hypergraph

        hypergraph = random_r_hypergraph(num_vertices=20, num_edges=45, rank=3, seed=2)
        line = hypergraph_line_graph(hypergraph)
        result = color_vertices(line, c=3, quality="superlinear")
        assert_legal_vertex_coloring(line, result.colors)


class TestRecursionBehaviour:
    def test_recursion_runs_on_large_degree_line_graph(self):
        base = graphs.random_regular(48, 14, seed=3)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        result = run_legal_coloring(line, params, c=2)
        assert result.num_levels >= 1
        assert_legal_vertex_coloring(line, result.colors)

    def test_level_trace_is_consistent(self):
        base = graphs.random_regular(48, 10, seed=3)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        result = run_legal_coloring(line, params, c=2)
        previous_bound = None
        for trace in result.levels:
            # Theorem 3.7 must hold at every level: the measured subgraph
            # degree never exceeds the declared degree bound.
            assert trace.max_subgraph_degree <= trace.degree_bound
            assert trace.next_degree_bound >= 1
            assert 1 <= trace.num_subgraphs <= params.p ** (trace.level + 1)
            if previous_bound is not None:
                assert trace.degree_bound <= previous_bound
            previous_bound = trace.next_degree_bound
        assert result.bottom_degree_bound <= max(
            params.threshold,
            result.levels[-1].next_degree_bound if result.levels else params.threshold,
        )

    def test_palette_accounting_matches_figure_3(self):
        base = graphs.random_regular(48, 10, seed=3)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        result = run_legal_coloring(line, params, c=2)
        expected = (result.bottom_degree_bound + 1) * params.p ** result.num_levels
        assert result.palette == expected
        assert max_color(result.colors) <= result.palette

    def test_small_graph_goes_straight_to_bottom(self, triangle):
        params = params_for_few_rounds(2, c=2)
        result = run_legal_coloring(triangle, params, c=2)
        assert result.num_levels == 0
        assert_legal_vertex_coloring(triangle, result.colors)
        assert result.palette <= params.threshold + 1

    def test_degree_bound_below_actual_degree_rejected(self, fig1_graph):
        params = params_for_few_rounds(fig1_graph.max_degree, c=2)
        with pytest.raises(InvalidParameterError):
            run_legal_coloring(fig1_graph, params, c=2, degree_bound=1)

    def test_invalid_c_rejected(self, fig1_graph):
        params = params_for_few_rounds(fig1_graph.max_degree, c=2)
        with pytest.raises(InvalidParameterError):
            run_legal_coloring(fig1_graph, params, c=0)

    def test_auxiliary_coloring_reduces_rounds(self):
        base = graphs.random_regular(60, 8, seed=4)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        with_aux = run_legal_coloring(line, params, c=2, use_auxiliary_coloring=True)
        without_aux = run_legal_coloring(line, params, c=2, use_auxiliary_coloring=False)
        assert_legal_vertex_coloring(line, with_aux.colors)
        assert_legal_vertex_coloring(line, without_aux.colors)
        # Both are legal; the Section 4.2 variant should not be slower once
        # there is at least one recursion level (it pays log* n once instead
        # of once per level).
        if with_aux.num_levels >= 1:
            assert with_aux.metrics.rounds <= without_aux.metrics.rounds + 4

    def test_empty_and_single_vertex_networks(self):
        from repro.local_model import FastNetwork

        empty = FastNetwork.from_adjacency({})
        params = params_for_few_rounds(1, c=2)
        result = run_legal_coloring(empty, params, c=2)
        assert result.colors == {}

        single = FastNetwork.from_adjacency({"v": []})
        result_single = run_legal_coloring(single, params, c=2)
        assert result_single.colors["v"] >= 1


class TestColorQuality:
    def test_linear_preset_uses_linearly_many_colors(self):
        # O(Delta) colors: verify the measured palette is within a moderate
        # constant times Delta on a line-graph workload.
        base = graphs.random_regular(60, 8, seed=6)
        line = line_graph_network(base)
        params = params_for_linear_colors(line.max_degree, c=2, epsilon=0.9)
        result = run_legal_coloring(line, params, c=2)
        assert_legal_vertex_coloring(line, result.colors)
        assert result.colors_used <= 12 * line.max_degree + 12

    def test_bottom_only_run_uses_delta_plus_one_colors(self, small_regular):
        params = params_for_few_rounds(small_regular.max_degree, c=2)
        result = run_legal_coloring(small_regular, params, c=2)
        if result.num_levels == 0:
            assert result.palette <= max(params.threshold, small_regular.max_degree) + 1
