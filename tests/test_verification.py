"""Unit tests for the verification oracles."""

from __future__ import annotations

import random

import numpy as np
import pytest

import graph_oracles

from repro import graphs
from repro.exceptions import ColoringError
from repro.local_model import FastNetwork
from repro.verification.bounds import (
    assert_defective_coloring,
    theorem_3_7_defect_bound,
    verify_legal_coloring_result,
)
from repro.verification.coloring import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
    coloring_defect,
    edge_coloring_defect,
    is_legal_edge_coloring,
    is_legal_vertex_coloring,
    max_color,
    palette_size,
)


class TestVertexColoringOracles:
    def test_legal_coloring_accepted(self, triangle):
        colors = {node: index + 1 for index, node in enumerate(triangle.nodes())}
        assert is_legal_vertex_coloring(triangle, colors)
        assert_legal_vertex_coloring(triangle, colors)

    def test_monochromatic_edge_rejected(self, triangle):
        colors = {node: 1 for node in triangle.nodes()}
        assert not is_legal_vertex_coloring(triangle, colors)
        with pytest.raises(ColoringError):
            assert_legal_vertex_coloring(triangle, colors)

    def test_missing_vertex_rejected(self, triangle):
        colors = {triangle.nodes()[0]: 1}
        with pytest.raises(ColoringError):
            is_legal_vertex_coloring(triangle, colors)

    def test_defect_measurement(self):
        path = graphs.path_graph(5)
        alternating = {node: node % 2 + 1 for node in path.nodes()}
        constant = {node: 1 for node in path.nodes()}
        assert coloring_defect(path, alternating) == 0
        assert coloring_defect(path, constant) == 2

    def test_palette_helpers(self):
        colors = {1: 3, 2: 3, 3: 7}
        assert palette_size(colors) == 2
        assert max_color(colors) == 7
        assert max_color({}) == 0


class TestEdgeColoringOracles:
    def test_legal_edge_coloring_accepted(self, triangle):
        edge_colors = {edge: index + 1 for index, edge in enumerate(triangle.edges())}
        assert is_legal_edge_coloring(triangle, edge_colors)
        assert_legal_edge_coloring(triangle, edge_colors)

    def test_lookup_accepts_reversed_endpoints(self, triangle):
        edge_colors = {(v, u): index + 1 for index, (u, v) in enumerate(triangle.edges())}
        assert is_legal_edge_coloring(triangle, edge_colors)

    def test_incident_same_color_rejected(self):
        star = graphs.star_graph(3)
        edge_colors = {edge: 1 for edge in star.edges()}
        assert not is_legal_edge_coloring(star, edge_colors)
        with pytest.raises(ColoringError):
            assert_legal_edge_coloring(star, edge_colors)

    def test_missing_edge_rejected(self, triangle):
        edge_colors = {triangle.edges()[0]: 1}
        with pytest.raises(ColoringError):
            is_legal_edge_coloring(triangle, edge_colors)

    def test_edge_defect_measurement(self):
        star = graphs.star_graph(4)
        same = {edge: 1 for edge in star.edges()}
        distinct = {edge: index + 1 for index, edge in enumerate(star.edges())}
        assert edge_coloring_defect(star, same) == 3
        assert edge_coloring_defect(star, distinct) == 0

    def test_disjoint_edges_may_share_colors(self):
        network = FastNetwork.from_adjacency({1: [2], 3: [4]})
        edge_colors = {edge: 1 for edge in network.edges()}
        assert is_legal_edge_coloring(network, edge_colors)


class TestArrayOracles:
    """The masked-CSR checks agree with the node-by-node scans of
    ``graph_oracles`` exactly -- verdicts, defects, and error messages byte
    for byte -- whether the coloring comes as a column or a mapping."""

    MAKERS = [
        lambda: graphs.random_regular(24, 4, seed=7),
        lambda: graphs.erdos_renyi(25, 0.2, seed=3),
        lambda: graphs.star_graph(6),
        lambda: graphs.grid_graph(4, 5),
        lambda: graphs.clique_with_pendants(5),
    ]

    @staticmethod
    def _message(callable_, *args):
        try:
            callable_(*args)
        except ColoringError as error:
            return str(error)
        return None

    @pytest.mark.parametrize("maker", MAKERS)
    def test_vertex_oracles_agree_across_forms(self, maker):
        fast = maker()
        rnd = random.Random(0)
        for _ in range(20):
            colors = {node: rnd.randrange(1, 5) for node in fast.nodes()}
            column = np.array([colors[node] for node in fast.order], dtype=np.int64)
            legal = graph_oracles.vertex_violation(fast, colors) is None
            assert is_legal_vertex_coloring(fast, column) == legal
            assert is_legal_vertex_coloring(fast, colors) == legal
            assert coloring_defect(fast, column) == graph_oracles.vertex_defect(fast, colors)
            assert coloring_defect(fast, colors) == coloring_defect(fast, column)
            expected = self._message(graph_oracles.assert_legal_vertex, fast, colors)
            assert self._message(assert_legal_vertex_coloring, fast, column) == expected
            assert self._message(assert_legal_vertex_coloring, fast, colors) == expected

    @pytest.mark.parametrize("maker", MAKERS)
    def test_edge_oracles_agree_across_forms(self, maker):
        fast = maker()
        edges = graph_oracles.edges(fast)
        rnd = random.Random(1)
        for _ in range(20):
            edge_colors = {edge: rnd.randrange(1, 7) for edge in edges}
            column = np.array([edge_colors[edge] for edge in edges], dtype=np.int64)
            legal = graph_oracles.edge_violation(fast, edge_colors) is None
            assert is_legal_edge_coloring(fast, column) == legal
            assert is_legal_edge_coloring(fast, edge_colors) == legal
            defect = graph_oracles.edge_defect(fast, edge_colors)
            assert edge_coloring_defect(fast, column) == defect
            assert edge_coloring_defect(fast, edge_colors) == defect
            expected = self._message(graph_oracles.assert_legal_edge, fast, edge_colors)
            assert self._message(assert_legal_edge_coloring, fast, column) == expected
            assert self._message(assert_legal_edge_coloring, fast, edge_colors) == expected

    def test_missing_entries_report_the_same_errors(self):
        fast = graphs.cycle_graph(3)
        first_node = {fast.nodes()[0]: 1}
        first_edge = {graph_oracles.edges(fast)[0]: 1}
        short_vertex = self._message(
            is_legal_vertex_coloring, fast, np.array([1], dtype=np.int64)
        )
        assert short_vertex == self._message(is_legal_vertex_coloring, fast, first_node)
        assert short_vertex == self._message(graph_oracles.vertex_violation, fast, first_node)
        assert short_vertex == "coloring misses 2 vertices (e.g. 1)"
        short_edge = self._message(is_legal_edge_coloring, fast, np.array([1], dtype=np.int64))
        assert short_edge == self._message(is_legal_edge_coloring, fast, first_edge)
        assert short_edge == self._message(graph_oracles.edge_violation, fast, first_edge)
        assert short_edge == "edge coloring misses 2 edges (e.g. (0, 2))"
        oversized = self._message(
            is_legal_vertex_coloring, fast, np.ones(9, dtype=np.int64)
        )
        assert "9 entries" in oversized

    def test_palette_helpers_accept_columns(self):
        column = np.array([3, 3, 7], dtype=np.int64)
        assert palette_size(column) == 2
        assert max_color(column) == 7
        assert max_color(np.zeros(0, dtype=np.int64)) == 0
        assert palette_size(np.zeros(0, dtype=np.int64)) == 0

    def test_column_verification_on_a_fast_built_workload(self):
        fast = graphs.random_regular(40, 6, seed=2)
        from repro.core import color_vertices

        result = color_vertices(fast, c=6, quality="superlinear", engine="vectorized")
        assert is_legal_vertex_coloring(fast, result.color_column)
        assert coloring_defect(fast, result.color_column) == 0
        broken = result.color_column.copy()
        broken[int(fast.indices_np[0])] = broken[0]  # recolor a neighbor of node 0
        assert not is_legal_vertex_coloring(fast, broken)
        with pytest.raises(ColoringError):
            assert_legal_vertex_coloring(fast, broken)


class TestBoundCheckers:
    def test_theorem_3_7_formula(self):
        assert theorem_3_7_defect_bound(Lambda=32, b=2, p=4, c=2) == 2 * (4 + 8 + 1)
        assert theorem_3_7_defect_bound(Lambda=10, b=1, p=10, c=3) == 3 * (1 + 1 + 1)

    def test_assert_defective_coloring_accepts_valid(self, small_regular):
        colors = {node: 1 + (small_regular.unique_id(node) % 3) for node in small_regular.nodes()}
        defect = coloring_defect(small_regular, colors)
        assert_defective_coloring(small_regular, colors, max_defect=defect, max_palette=3)

    def test_assert_defective_coloring_rejects_excess_defect(self, small_regular):
        colors = {node: 1 for node in small_regular.nodes()}
        with pytest.raises(ColoringError):
            assert_defective_coloring(small_regular, colors, max_defect=1, max_palette=1)

    def test_assert_defective_coloring_rejects_excess_palette(self, triangle):
        colors = {node: index + 1 for index, node in enumerate(triangle.nodes())}
        with pytest.raises(ColoringError):
            assert_defective_coloring(triangle, colors, max_defect=0, max_palette=2)

    def test_assert_defective_coloring_rejects_nonpositive_colors(self, triangle):
        colors = {node: 0 for node in triangle.nodes()}
        with pytest.raises(ColoringError):
            assert_defective_coloring(triangle, colors, max_defect=3, max_palette=3)

    def test_verify_legal_coloring_result(self, triangle):
        colors = {node: index + 1 for index, node in enumerate(triangle.nodes())}
        verify_legal_coloring_result(triangle, colors, palette_bound=3)
        with pytest.raises(ColoringError):
            verify_legal_coloring_result(triangle, colors, palette_bound=2)
