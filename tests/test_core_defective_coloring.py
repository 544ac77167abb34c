"""Unit tests for Procedure Defective-Color (Algorithm 1, Theorem 3.7)."""

from __future__ import annotations

import pytest

from graph_oracles import line_graph_network

from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.core.defective_coloring import (
    defective_color_pipeline,
    run_defective_color,
)
from repro.verification.bounds import theorem_3_7_defect_bound
from repro.verification.coloring import coloring_defect, max_color


class TestParameterValidation:
    def test_b_times_p_must_not_exceed_lambda(self):
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=3, p=4, Lambda=10, c=2)

    def test_positive_parameters_required(self):
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=0, p=2, Lambda=10, c=2)
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=1, p=0, Lambda=10, c=2)
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=1, p=2, Lambda=0, c=2)
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=1, p=2, Lambda=10, c=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            defective_color_pipeline(n=10, b=1, p=2, Lambda=10, c=2, mode="quantum")


class TestVertexMode:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_theorem_3_7_on_line_graphs(self, p):
        base = graphs.random_regular(36, 6, seed=3)
        line = line_graph_network(base)
        Lambda = line.max_degree
        b = max(1, Lambda // (2 * p))
        colors, info, metrics = run_defective_color(line, b=b, p=p, c=2)
        assert set(colors.values()) <= set(range(1, p + 1))
        measured = coloring_defect(line, colors)
        assert measured <= info.psi_defect_bound
        assert info.psi_defect_bound == theorem_3_7_defect_bound(Lambda, b, p, 2)

    def test_defect_times_colors_linear_in_delta(self):
        # The headline of Section 3: defect * colors = O(Delta) for bounded
        # neighborhood independence, versus O(Delta * p) previously.
        base = graphs.random_regular(40, 8, seed=2)
        line = line_graph_network(base)
        Lambda = line.max_degree
        p = 4
        b = max(1, Lambda // (2 * p))
        _, info, _ = run_defective_color(line, b=b, p=p, c=2)
        assert info.psi_defect_bound * p <= 12 * Lambda + 12

    def test_fig1_graph_defective_coloring(self, fig1_graph):
        colors, info, _ = run_defective_color(fig1_graph, b=1, p=3, c=2)
        assert coloring_defect(fig1_graph, colors) <= info.psi_defect_bound
        assert max_color(colors) <= 3

    def test_hypergraph_line_graph_with_larger_c(self):
        from repro.graphs.hypergraphs import hypergraph_line_graph, random_r_hypergraph

        hypergraph = random_r_hypergraph(num_vertices=18, num_edges=40, rank=3, seed=6)
        line = hypergraph_line_graph(hypergraph)
        Lambda = max(1, line.max_degree)
        p = 3
        b = max(1, Lambda // (2 * p))
        if b * p > Lambda:
            pytest.skip("degree too small for these parameters")
        colors, info, _ = run_defective_color(line, b=b, p=p, c=3)
        assert coloring_defect(line, colors) <= info.psi_defect_bound

    def test_p_equal_one_gives_single_class(self, small_regular):
        colors, info, _ = run_defective_color(small_regular, b=1, p=1, c=2)
        assert set(colors.values()) == {1}
        assert info.psi_defect_bound >= small_regular.max_degree

    def test_rounds_dominated_by_phi_palette(self):
        base = graphs.random_regular(30, 6, seed=4)
        line = line_graph_network(base)
        p = 3
        b = 1
        colors, info, metrics = run_defective_color(line, b=b, p=p, c=2)
        # log* n rounds for the base coloring plus at most phi_palette + a few
        # rounds for the recoloring loop.
        assert metrics.rounds <= info.phi_palette + 16


class TestEdgeMode:
    def test_edge_mode_on_line_graph_network(self):
        base = graphs.random_regular(24, 4, seed=8)
        line = line_graph_network(base)
        Lambda = max(1, line.max_degree)
        p = 3
        b = max(1, Lambda // (3 * p))
        colors, info, metrics = run_defective_color(line, b=b, p=p, c=2, mode="edge")
        assert set(colors.values()) <= set(range(1, p + 1))
        assert coloring_defect(line, colors) <= info.psi_defect_bound
        # Corollary 5.4 replaces the log* n base coloring, so the round count
        # is tiny: one round for the labels plus the recoloring loop.
        assert metrics.rounds <= info.phi_palette + 8

    def test_edge_mode_requires_edge_tuple_ids(self, small_regular):
        with pytest.raises(InvalidParameterError):
            run_defective_color(small_regular, b=1, p=2, c=2, mode="edge")


class TestInfoObject:
    def test_info_fields_are_consistent(self):
        pipeline, info = defective_color_pipeline(n=100, b=2, p=4, Lambda=32, c=2)
        assert info.p == 4
        assert info.output_key == "psi_color"
        assert info.phi_defect_bound == 32 // 8
        assert info.psi_defect_bound == 2 * (32 // 8 + 32 // 4 + 1)
        assert len(pipeline.phases) >= 2
