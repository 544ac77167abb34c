"""Unit tests for acyclic orientations (Lemmas 3.4 / 3.5 machinery, Figure 2)."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.graphs.orientation import (
    acyclic_orientation_from_coloring,
    is_acyclic_orientation,
    longest_directed_path_length,
    max_out_degree,
    out_neighbors,
)
from repro.baselines import greedy_sequential_vertex_coloring
from repro.local_model.fast_network import as_network


class TestOrientationFromColoring:
    def test_orientation_covers_all_edges(self, small_regular, shape):
        small_regular = shape(small_regular)
        colors = greedy_sequential_vertex_coloring(small_regular)
        orientation = acyclic_orientation_from_coloring(small_regular, colors)
        assert set(orientation.keys()) == set(as_network(small_regular).edges())

    def test_orientation_is_acyclic_for_legal_coloring(self, small_regular, shape):
        small_regular = shape(small_regular)
        colors = greedy_sequential_vertex_coloring(small_regular)
        orientation = acyclic_orientation_from_coloring(small_regular, colors)
        assert is_acyclic_orientation(small_regular, orientation)

    def test_orientation_is_acyclic_even_for_constant_coloring(self, small_regular, shape):
        small_regular = shape(small_regular)
        # Ties are broken by unique identifier, which is itself acyclic.
        constant = {node: 1 for node in small_regular.nodes()}
        orientation = acyclic_orientation_from_coloring(small_regular, constant)
        assert is_acyclic_orientation(small_regular, orientation)

    def test_edges_point_towards_smaller_color(self, triangle, shape):
        triangle = shape(triangle)
        colors = {node: index + 1 for index, node in enumerate(triangle.nodes())}
        orientation = acyclic_orientation_from_coloring(triangle, colors)
        for (u, v), head in orientation.items():
            tail = v if head == u else u
            assert colors[head] <= colors[tail]

    def test_out_degree_bounded_by_degree(self, small_regular, shape):
        small_regular = shape(small_regular)
        colors = greedy_sequential_vertex_coloring(small_regular)
        orientation = acyclic_orientation_from_coloring(small_regular, colors)
        assert max_out_degree(small_regular, orientation) <= small_regular.max_degree

    def test_out_neighbors_consistent_with_out_degree(self, triangle, shape):
        triangle = shape(triangle)
        colors = {node: index + 1 for index, node in enumerate(triangle.nodes())}
        orientation = acyclic_orientation_from_coloring(triangle, colors)
        total_out = sum(
            len(out_neighbors(triangle, orientation, node)) for node in triangle.nodes()
        )
        assert total_out == triangle.num_edges


class TestAcyclicityAndPaths:
    def test_directed_cycle_detected(self, triangle, shape):
        triangle = shape(triangle)
        nodes = triangle.nodes()
        # Build a rotating orientation: 0 -> 1 -> 2 -> 0.
        orientation = {}
        for u, v in as_network(triangle).edges():
            i, j = nodes.index(u), nodes.index(v)
            head = v if (j - i) % 3 == 1 else u
            orientation[(u, v)] = head
        assert not is_acyclic_orientation(triangle, orientation)

    def test_longest_path_on_oriented_path_graph(self, shape):
        path = shape(graphs.path_graph(6))
        colors = {node: node + 1 for node in path.nodes()}
        orientation = acyclic_orientation_from_coloring(path, colors)
        assert longest_directed_path_length(path, orientation) == 5

    def test_longest_path_rejects_cyclic_orientation(self, triangle, shape):
        triangle = shape(triangle)
        nodes = triangle.nodes()
        orientation = {}
        for u, v in as_network(triangle).edges():
            i, j = nodes.index(u), nodes.index(v)
            orientation[(u, v)] = v if (j - i) % 3 == 1 else u
        with pytest.raises(InvalidParameterError):
            longest_directed_path_length(triangle, orientation)

    def test_longest_path_bounded_by_number_of_color_classes(self, small_regular, shape):
        small_regular = shape(small_regular)
        colors = greedy_sequential_vertex_coloring(small_regular)
        orientation = acyclic_orientation_from_coloring(small_regular, colors)
        # Along a directed path the (color, id) pair strictly decreases, so the
        # path length is at most n - 1; with a legal coloring the color strictly
        # decreases or stays equal with decreasing id.
        longest = longest_directed_path_length(small_regular, orientation)
        assert longest <= small_regular.num_nodes - 1

    def test_incomplete_orientation_rejected(self, triangle, shape):
        triangle = shape(triangle)
        first = as_network(triangle).edges()[0]
        orientation = {first: first[0]}
        with pytest.raises(InvalidParameterError):
            is_acyclic_orientation(triangle, orientation)

    def test_orientation_with_foreign_head_rejected(self, triangle, shape):
        triangle = shape(triangle)
        edges = as_network(triangle).edges()
        orientation = {edge: edge[0] for edge in edges}
        orientation[edges[0]] = "foreign"
        with pytest.raises(InvalidParameterError):
            is_acyclic_orientation(triangle, orientation)
