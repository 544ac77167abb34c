"""Unit tests for Procedure Legal-Color (Algorithm 2, Theorems 4.5-4.8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engine_configs import ENGINE_CONFIGS, engine_config
from graph_oracles import line_graph_network

from repro import graphs
from repro.core.legal_coloring import (
    _color_split_classes,
    color_vertices,
    plan_legal_coloring,
    run_legal_coloring,
)
from repro.core.parameters import (
    LegalColorParameters,
    params_for_few_rounds,
    params_for_linear_colors,
    params_for_quality,
)
from repro.exceptions import InvalidParameterError
from repro.local_model.metrics import RunMetrics
from repro.primitives.linial import LinialColoringPhase
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


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        quality=st.sampled_from(["linear", "superlinear", "subpolynomial"]),
        delta=st.integers(1, 700),
        c=st.integers(1, 5),
        edge_mode=st.booleans(),
    )
    # Delta(L(G)) of a 16-regular graph: the Corollary 5.4 bound would be 36.
    @example(quality="linear", delta=30, c=2, edge_mode=True)
    def test_every_planned_level_shrinks_the_bound(self, quality, delta, c, edge_mode):
        params = params_for_quality(quality, delta, c)
        plan = plan_legal_coloring(params, delta, c, edge_mode=edge_mode)
        bounds = plan.degree_bounds
        assert all(later < earlier for earlier, later in zip(bounds, bounds[1:]))
        if plan.num_levels == 0:
            assert plan.palette == delta + 1


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

    @pytest.mark.parametrize("c", [1, 2])
    def test_bottom_max_degree_is_the_bottom_views_degree(self, c):
        # Recompute the bottom view from the final recursion paths (the
        # color quotients), with a mask over the root's CSR entries.
        network = graphs.random_regular(2000, 32, seed=1)
        result = color_vertices(network, c=c)
        assert result.num_levels >= 1
        paths = (result.color_column - 1) // (result.bottom_degree_bound + 1)
        rows = np.repeat(np.arange(network.num_nodes), network.degrees)
        same = paths[rows] == paths[network.indices]
        measured = int(np.bincount(rows[same], minlength=network.num_nodes).max())
        assert result.bottom_max_degree == measured
        assert result.bottom_degree_bound == max(result.levels[-1].next_degree_bound, measured)

    def test_palette_accounting_matches_figure_3(self):
        base = graphs.random_regular(48, 10, seed=3)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        result = run_legal_coloring(line, params, c=2)
        expected = (result.bottom_degree_bound + 1) * params.p ** result.num_levels
        assert result.palette == expected
        assert max_color(result.colors) <= result.palette

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_color_quotients_are_base_p_recursion_paths(self, config):
        # Figure 3: color = bottom + path * (hat-Lambda + 1), with the path
        # (psi_0 - 1, ..., psi_{L-1} - 1) read as a base-p number.  So the
        # first j + 1 digits of every quotient name the node's level-j
        # subgraph, and each level's subgraph count is their distinct count.
        line = line_graph_network(graphs.random_regular(40, 16, seed=1))
        params = LegalColorParameters(b=2, p=5, threshold=4, description="three levels")
        with engine_config(config) as engine:
            result = run_legal_coloring(line, params, c=2, engine=engine)
        assert result.num_levels == 3
        paths = (result.color_column - 1) // (result.bottom_degree_bound + 1)
        assert paths.min() >= 0 and paths.max() < params.p**result.num_levels
        for trace in result.levels:
            prefixes = paths // params.p ** (result.num_levels - trace.level - 1)
            assert len(np.unique(prefixes)) == trace.num_subgraphs
        assert_legal_vertex_coloring(line, result.colors)

    def test_small_graph_goes_straight_to_bottom(self, triangle):
        params = params_for_few_rounds(2, c=2)
        result = run_legal_coloring(triangle, params, c=2)
        assert result.num_levels == 0
        assert_legal_vertex_coloring(triangle, result.colors)
        assert result.palette <= params.threshold + 1

    def test_invalid_c_rejected(self, fig1_graph):
        params = params_for_few_rounds(fig1_graph.max_degree, c=2)
        with pytest.raises(InvalidParameterError):
            run_legal_coloring(fig1_graph, params, c=0)

    def test_auxiliary_coloring_reduces_rounds(self, monkeypatch):
        base = graphs.random_regular(60, 8, seed=4)
        line = line_graph_network(base)
        params = params_for_few_rounds(line.max_degree, c=2)
        starts = []
        original = LinialColoringPhase.__init__

        def spy(phase, *args, **kwargs):
            original(phase, *args, **kwargs)
            starts.append((phase.input_key, phase.initial_palette))

        monkeypatch.setattr(LinialColoringPhase, "__init__", spy)
        with_aux = run_legal_coloring(line, params, c=2)
        assert_legal_vertex_coloring(line, with_aux.colors)
        # Section 4.2: Linial starts from the identifier palette exactly once,
        # for the auxiliary coloring rho; every later Linial starts from rho.
        assert starts[0] == (None, line.num_nodes)
        assert len(starts) > 1
        assert all(key == "_aux_rho" for key, _ in starts[1:])

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


class TestSplitClasses:
    def test_class_palettes_are_stacked_blocks(self):
        # Any split works: class i is colored on its own edges and gets the
        # i-th block of the per-class palette, so the stacked coloring is
        # legal on the whole graph.
        fast = graphs.random_regular(40, 8, seed=2)
        labels = np.arange(fast.num_nodes, dtype=np.int64) % 3 + 1
        metrics = RunMetrics()
        colors, per_class_palette = _color_split_classes(
            fast.filtered_by_labels(labels), labels, 2, None, metrics
        )
        assert ((colors - 1) // per_class_palette + 1).tolist() == labels.tolist()
        assert metrics.rounds > 0
        assert_legal_vertex_coloring(fast, fast.column_mapping(colors))
