"""Unit tests for the baseline algorithms (the "previous" rows of Tables 1-2)."""

from __future__ import annotations

import numpy as np
import pytest
from engine_configs import ENGINE_CONFIGS, engine_config

from repro import color_edges, graphs
from repro.baselines import (
    greedy_reduction_edge_coloring,
    greedy_sequential_edge_coloring,
    greedy_sequential_vertex_coloring,
    luby_edge_coloring,
    luby_vertex_coloring,
    panconesi_rizzi_edge_coloring,
)
from repro.exceptions import InvalidParameterError
from repro.local_model import FastNetwork
from repro.verification.coloring import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
    max_color,
)


class TestSequentialOracles:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: graphs.random_regular(30, 5, seed=1),
            lambda: graphs.clique_with_pendants(9),
            lambda: graphs.grid_graph(5, 6),
            lambda: graphs.complete_graph(7),
        ],
    )
    def test_greedy_vertex_coloring_legal_and_delta_plus_one(self, maker):
        network = maker()
        colors = greedy_sequential_vertex_coloring(network)
        assert_legal_vertex_coloring(network, colors)
        assert max_color(colors) <= network.max_degree + 1

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: graphs.random_regular(30, 5, seed=1),
            lambda: graphs.random_bipartite_regular(10, 4, seed=2),
            lambda: graphs.star_graph(8),
        ],
    )
    def test_greedy_edge_coloring_legal_and_2delta_minus_1(self, maker):
        network = maker()
        edge_colors = greedy_sequential_edge_coloring(network)
        assert_legal_edge_coloring(network, edge_colors)
        assert max_color(edge_colors) <= max(1, 2 * network.max_degree - 1)

    def test_empty_graph_oracles(self):
        from repro.local_model import FastNetwork

        empty = FastNetwork.from_adjacency({1: [], 2: []})
        assert greedy_sequential_edge_coloring(empty) == {}
        colors = greedy_sequential_vertex_coloring(empty)
        assert set(colors.values()) == {1}


class TestPanconesiRizziBaseline:
    def test_produces_2delta_minus_1_coloring(self, medium_regular):
        result = panconesi_rizzi_edge_coloring(medium_regular)
        assert_legal_edge_coloring(medium_regular, result.edge_colors)
        assert result.palette <= 2 * medium_regular.max_degree - 1
        assert result.colors_used <= result.palette
        assert result.route == "baseline-pr"

    def test_rounds_grow_with_degree(self):
        slow_growth = []
        for degree in (4, 8, 12):
            network = graphs.random_regular(36, degree, seed=degree)
            result = panconesi_rizzi_edge_coloring(network)
            slow_growth.append(result.metrics.rounds)
        assert slow_growth[0] < slow_growth[-1]

    def test_star_graph(self):
        star = graphs.star_graph(7)
        result = panconesi_rizzi_edge_coloring(star)
        assert_legal_edge_coloring(star, result.edge_colors)
        # A star needs exactly Delta colors.
        assert result.colors_used == 7


class TestGreedyReductionBaseline:
    def test_correct_but_slower_than_pr(self, small_regular):
        greedy = greedy_reduction_edge_coloring(small_regular)
        pr = panconesi_rizzi_edge_coloring(small_regular)
        assert_legal_edge_coloring(small_regular, greedy.edge_colors)
        assert greedy.palette == pr.palette
        # One class per round is never faster than the block reduction.
        assert greedy.metrics.rounds >= pr.metrics.rounds


class TestLubyBaseline:
    def test_vertex_coloring_legal(self, medium_regular):
        result = luby_vertex_coloring(medium_regular, seed=1)
        assert_legal_vertex_coloring(medium_regular, result.colors)
        assert max_color(result.colors) <= medium_regular.max_degree + 1
        assert result.palette == medium_regular.max_degree + 1
        assert result.color_column is not None
        assert result.metrics.rounds >= 1

    def test_edge_coloring_legal(self, small_regular):
        result = luby_edge_coloring(small_regular, seed=2)
        assert_legal_edge_coloring(small_regular, result.edge_colors)
        assert result.palette <= 2 * small_regular.max_degree - 1

    def test_reproducible_given_seed(self, small_regular):
        first = luby_vertex_coloring(small_regular, seed=5)
        second = luby_vertex_coloring(small_regular, seed=5)
        assert first.colors == second.colors

    def test_rounds_logarithmic_in_practice(self):
        network = graphs.random_regular(128, 6, seed=9)
        result = luby_vertex_coloring(network, seed=3)
        assert result.metrics.rounds <= 40

    def test_custom_palette(self, small_regular):
        result = luby_vertex_coloring(
            small_regular, palette=3 * small_regular.max_degree, seed=1
        )
        assert_legal_vertex_coloring(small_regular, result.colors)

    @pytest.mark.parametrize("seed", [1.5, True, False, "3", None])
    def test_non_integer_seed_rejected(self, small_regular, seed):
        with pytest.raises(InvalidParameterError):
            luby_vertex_coloring(small_regular, seed=seed)
        with pytest.raises(InvalidParameterError):
            luby_edge_coloring(small_regular, seed=seed)

    def test_numpy_integer_seed_same_as_int(self, small_regular):
        assert (
            luby_vertex_coloring(small_regular, seed=np.int64(5)).colors
            == luby_vertex_coloring(small_regular, seed=5).colors
        )


@pytest.mark.parametrize("config", ENGINE_CONFIGS)
@pytest.mark.parametrize(
    "run",
    [
        lambda g, engine: color_edges(g, route="direct", engine=engine),
        lambda g, engine: color_edges(g, route="simulation", engine=engine),
        panconesi_rizzi_edge_coloring,
        greedy_reduction_edge_coloring,
        luby_edge_coloring,
    ],
    ids=["direct", "simulation", "panconesi-rizzi", "greedy-reduction", "luby"],
)
@pytest.mark.parametrize("adjacency", [{}, {1: [], 2: []}], ids=["empty", "isolated"])
def test_every_edge_entry_point_colors_an_edgeless_graph(config, run, adjacency):
    network = FastNetwork.from_adjacency(adjacency)
    with engine_config(config) as engine:
        result = run(network, engine=engine)
    assert result.edge_colors == {}
    assert result.palette == 1
    assert len(result.color_column) == 0
    assert_legal_edge_coloring(network, result.edge_colors)
