"""Unit tests for line-graph construction (Lemma 5.1 / 5.2 structural facts)."""

from __future__ import annotations

import numpy as np

import graph_oracles

from repro import graphs
from repro.graphs.properties import has_neighborhood_independence_at_most
from repro.local_model import FastNetwork, build_line_graph_fast, line_meta_for, node_sort_key


def edge_ids(line: FastNetwork) -> dict:
    """``canonical edge -> unique id`` of a line-graph view."""
    return dict(zip(line.order, line.unique_ids.tolist()))


class TestLineGraphStructure:
    def test_vertex_count_equals_edge_count(self, small_regular):
        line = build_line_graph_fast(small_regular)
        assert line.num_nodes == small_regular.num_edges

    def test_degree_bound_of_lemma_5_2(self, small_regular):
        line = build_line_graph_fast(small_regular)
        assert line.max_degree <= 2 * (small_regular.max_degree - 1)

    def test_adjacency_means_sharing_an_endpoint(self, medium_regular):
        line = build_line_graph_fast(medium_regular)
        for e1, neighbors in zip(line.nodes(), line.neighbor_ids):
            for e2 in neighbors:
                assert set(e1) & set(e2), f"{e1} and {e2} adjacent but disjoint"

    def test_non_adjacent_edges_are_not_neighbors(self):
        # Two disjoint edges: their line graph has no edges.
        network = FastNetwork.from_adjacency({1: [2], 3: [4]})
        line = build_line_graph_fast(network)
        assert line.num_nodes == 2
        assert line.num_edges == 0

    def test_triangle_line_graph_is_triangle(self, triangle):
        line = build_line_graph_fast(triangle)
        assert line.num_nodes == 3
        assert line.num_edges == 3

    def test_star_line_graph_is_clique(self):
        star = graphs.star_graph(5)
        line = build_line_graph_fast(star)
        assert line.num_nodes == 5
        assert line.num_edges == 10  # K5

    def test_path_line_graph_is_shorter_path(self):
        path = graphs.path_graph(6)
        line = build_line_graph_fast(path)
        assert line.num_nodes == 5
        assert line.num_edges == 4
        assert line.max_degree == 2

    def test_lemma_5_1_independence_bound(self, medium_regular):
        line = build_line_graph_fast(medium_regular)
        assert has_neighborhood_independence_at_most(line, 2)

    def test_empty_graph_line_graph(self):
        line = build_line_graph_fast(FastNetwork.from_adjacency({1: [], 2: []}))
        assert line.num_nodes == 0


class TestIdentifiers:
    def test_edge_ids_are_unique_and_cover_all_edges(self, small_regular):
        ids = edge_ids(build_line_graph_fast(small_regular))
        assert len(ids) == small_regular.num_edges
        assert sorted(ids.values()) == list(range(1, small_regular.num_edges + 1))

    def test_edge_ids_sorted_by_endpoint_pair(self, small_regular):
        ids = edge_ids(build_line_graph_fast(small_regular))
        pairs = {
            edge: (small_regular.unique_id(edge[0]), small_regular.unique_id(edge[1]))
            for edge in ids
        }
        ordered = sorted(ids, key=lambda e: ids[e])
        assert [pairs[e] for e in ordered] == sorted(pairs[e] for e in ordered)

    def test_node_ids_are_canonical_edge_tuples(self, small_regular):
        line = build_line_graph_fast(small_regular)
        for edge in line.nodes():
            assert isinstance(edge, tuple) and len(edge) == 2
            u, v = edge
            assert small_regular.unique_id(u) < small_regular.unique_id(v)
            assert v in small_regular.neighbor_ids[small_regular.index_of[u]]


#: Networks the CSR builder is pinned against the dict-built oracle on,
#: including custom (non-monotone) unique ids and mixed identifier types.
BUILDER_CASES = {
    "regular30x6": lambda: graphs.random_regular(30, 6, seed=1),
    "erdos-renyi": lambda: graphs.erdos_renyi(24, 0.3, seed=2),
    "star9": lambda: graphs.star_graph(9),
    "grid5x4": lambda: graphs.grid_graph(5, 4),
    "path6": lambda: graphs.path_graph(6),
    "two-disjoint-edges": lambda: FastNetwork.from_adjacency({1: [2], 3: [4]}),
    "edgeless": lambda: FastNetwork.from_adjacency({1: [], 2: []}),
    "empty": lambda: FastNetwork.from_adjacency({}),
    "custom-uids": lambda: FastNetwork.from_adjacency(
        {"a": ["b", "c"], "b": ["c", "d"], "c": [], "d": []},
        unique_ids={"a": 40, "b": 10, "c": 30, "d": 20},
    ),
    "mixed-ids": lambda: FastNetwork.from_adjacency({1: ["x", (2, 3)], "x": [(2, 3)]}),
}


class TestFastBuilder:
    """build_line_graph_fast == the dict-built line graph of the test oracles."""

    def test_matches_the_dict_built_line_graph(self):
        for name, maker in BUILDER_CASES.items():
            graph_oracles.assert_line_graph_matches(maker(), name)

    def test_order_is_lazy_until_the_api_boundary(self, small_regular):
        fast = build_line_graph_fast(small_regular)
        assert fast._order is None  # no edge tuples were interned yet
        assert fast.num_nodes == small_regular.num_edges
        assert list(fast.order) == graph_oracles.edges(small_regular)

    def test_filtered_views_inherit_the_incidence_encoding(self, small_regular):
        fast = build_line_graph_fast(small_regular)
        meta = fast.line_meta
        assert meta is not None
        derived = fast.filtered_by_labels(np.zeros(fast.num_nodes, dtype=np.int64))
        assert derived.line_meta is meta

    def test_incidence_encoding_matches_the_edge_tuples(self, small_regular):
        fast = build_line_graph_fast(small_regular)
        meta = fast.line_meta
        g_order = small_regular.nodes()
        for k, (u, v) in enumerate(fast.order):
            assert g_order[meta.edge_u[k]] == u
            assert g_order[meta.edge_v[k]] == v
        # sort_rank reproduces node_sort_key order over the edge tuples.
        by_rank = np.argsort(meta.sort_rank)
        assert [fast.order[i] for i in by_rank.tolist()] == sorted(
            fast.order, key=node_sort_key
        )

    def test_derived_meta_agrees_with_builder_meta(self, small_regular):
        built = build_line_graph_fast(small_regular)
        derived = line_meta_for(graph_oracles.line_graph_network(small_regular))
        np.testing.assert_array_equal(
            np.argsort(derived.sort_rank), np.argsort(built.line_meta.sort_rank)
        )
        # Endpoint codes differ (interned vs. dense) but must induce the same
        # sharing relation.
        for k in range(built.num_nodes):
            same_built = (built.line_meta.edge_u == built.line_meta.edge_u[k]) | (
                built.line_meta.edge_v == built.line_meta.edge_u[k]
            )
            same_derived = (derived.edge_u == derived.edge_u[k]) | (
                derived.edge_v == derived.edge_u[k]
            )
            np.testing.assert_array_equal(same_built, same_derived)
