"""Unit tests for the Section 6 extensions (randomized split and tradeoff)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graph_oracles import line_graph_network

from repro import graphs
from repro.core.randomized import randomized_color_vertices
from repro.core.tradeoff import tradeoff_color_vertices
from repro.exceptions import InvalidParameterError
from repro.verification.coloring import assert_legal_vertex_coloring, max_color


class TestRandomizedColoring:
    def test_legal_coloring_on_high_degree_graph(self):
        # Delta = 29 >> log2(60) ~ 6, so the random split is used.
        network = graphs.clique_with_pendants(30)
        result = randomized_color_vertices(network, c=2, seed=1)
        assert result.used_random_split
        assert result.num_classes >= 2
        assert_legal_vertex_coloring(network, result.colors)
        assert max_color(result.colors) <= result.palette

    def test_split_defect_is_logarithmic_whp(self):
        network = graphs.clique_with_pendants(40)
        result = randomized_color_vertices(network, c=2, seed=2)
        log_n = math.log2(network.num_nodes)
        # Theorem 6.1's Chernoff bound: the intra-class degree is O(log n);
        # allow a generous constant for the small sizes we test at.
        assert result.split_defect <= 8 * log_n + 8

    def test_low_degree_graph_skips_the_split(self):
        network = graphs.cycle_graph(64)
        result = randomized_color_vertices(network, c=2, seed=3)
        assert not result.used_random_split
        assert result.num_classes == 1
        assert_legal_vertex_coloring(network, result.colors)

    def test_reproducible_given_seed(self):
        network = graphs.clique_with_pendants(20)
        first = randomized_color_vertices(network, c=2, seed=7)
        second = randomized_color_vertices(network, c=2, seed=7)
        assert first.colors == second.colors

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, False, None])
    def test_non_integer_seed_rejected(self, fig1_graph, seed):
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            randomized_color_vertices(fig1_graph, c=2, seed=seed)

    def test_numpy_integer_seed_same_as_int(self):
        network = graphs.clique_with_pendants(20)
        as_numpy = randomized_color_vertices(network, c=2, seed=np.int64(7))
        as_int = randomized_color_vertices(network, c=2, seed=7)
        assert as_numpy.class_assignment == as_int.class_assignment
        assert as_numpy.colors == as_int.colors

    def test_different_seeds_usually_differ(self):
        network = graphs.clique_with_pendants(20)
        first = randomized_color_vertices(network, c=2, seed=1)
        second = randomized_color_vertices(network, c=2, seed=2)
        assert first.class_assignment != second.class_assignment

    def test_line_graph_workload(self):
        base = graphs.random_regular(30, 8, seed=4)
        line = line_graph_network(base)
        result = randomized_color_vertices(line, c=2, seed=5)
        assert_legal_vertex_coloring(line, result.colors)

    def test_invalid_c(self, fig1_graph):
        with pytest.raises(InvalidParameterError):
            randomized_color_vertices(fig1_graph, c=0)


class TestTradeoffColoring:
    @pytest.mark.parametrize("exponent", [0.5, 1.0])
    def test_legal_and_within_palette(self, exponent):
        network = graphs.clique_with_pendants(16)
        result = tradeoff_color_vertices(network, c=2, g=lambda d: d**exponent)
        assert_legal_vertex_coloring(network, result.colors)
        assert max_color(result.colors) <= result.palette

    def test_larger_g_means_fewer_colors(self):
        base = graphs.random_regular(40, 10, seed=6)
        line = line_graph_network(base)
        mild = tradeoff_color_vertices(line, c=2, g=lambda d: 2.0)
        aggressive = tradeoff_color_vertices(line, c=2, g=lambda d: float(d))
        assert_legal_vertex_coloring(line, mild.colors)
        assert_legal_vertex_coloring(line, aggressive.colors)
        assert aggressive.palette <= mild.palette

    def test_constant_g_close_to_one_degenerates_to_split_free_run(self):
        network = graphs.clique_with_pendants(10)
        result = tradeoff_color_vertices(network, c=2, g=lambda d: 1.0)
        assert_legal_vertex_coloring(network, result.colors)

    def test_split_defect_bound_respected(self):
        network = graphs.clique_with_pendants(20)
        result = tradeoff_color_vertices(network, c=2, g=lambda d: d**0.5)
        # The per-class subgraph degree is bounded by the split defect bound.
        assert result.split_defect_bound >= 1

    def test_invalid_parameters(self, fig1_graph):
        with pytest.raises(InvalidParameterError):
            tradeoff_color_vertices(fig1_graph, c=0, g=lambda d: 2.0)
        with pytest.raises(InvalidParameterError):
            tradeoff_color_vertices(fig1_graph, c=2, g=lambda d: 2.0, eta=1.5)
        with pytest.raises(InvalidParameterError):
            tradeoff_color_vertices(fig1_graph, c=2, g=lambda d: 0.5)
