"""Unit tests for line-graph construction (Lemma 5.1 / 5.2 structural facts)."""

from __future__ import annotations

import numpy as np

from repro import graphs
from repro.graphs.line_graph import (
    build_line_graph_fast,
    build_line_graph_network,
    canonical_edge,
    line_graph_network,
)
from repro.graphs.properties import has_neighborhood_independence_at_most
from repro.local_model import Network, line_meta_for


class TestCanonicalEdge:
    def test_orders_by_unique_id(self, triangle):
        a, b = triangle.nodes()[0], triangle.nodes()[1]
        edge = canonical_edge(triangle, b, a)
        assert triangle.unique_id(edge[0]) < triangle.unique_id(edge[1])

    def test_same_result_for_both_orders(self, small_regular):
        u, v = small_regular.to_network().edges()[0]
        assert canonical_edge(small_regular, u, v) == canonical_edge(small_regular, v, u)


class TestLineGraphStructure:
    def test_vertex_count_equals_edge_count(self, small_regular):
        line = line_graph_network(small_regular)
        assert line.num_nodes == small_regular.num_edges

    def test_degree_bound_of_lemma_5_2(self, small_regular):
        line = line_graph_network(small_regular)
        assert line.max_degree <= 2 * (small_regular.max_degree - 1)

    def test_adjacency_means_sharing_an_endpoint(self, medium_regular):
        line = line_graph_network(medium_regular)
        for e1 in line.nodes():
            for e2 in line.neighbors(e1):
                assert set(e1) & set(e2), f"{e1} and {e2} adjacent but disjoint"

    def test_non_adjacent_edges_are_not_neighbors(self):
        # Two disjoint edges: their line graph has no edges.
        network = (
            graphs.Network.from_edges([(1, 2), (3, 4)]) if hasattr(graphs, "Network") else None
        )
        from repro.local_model import Network

        network = Network.from_edges([(1, 2), (3, 4)])
        line = line_graph_network(network)
        assert line.num_nodes == 2
        assert line.num_edges == 0

    def test_triangle_line_graph_is_triangle(self, triangle):
        line = line_graph_network(triangle)
        assert line.num_nodes == 3
        assert line.num_edges == 3

    def test_star_line_graph_is_clique(self):
        star = graphs.star_graph(5)
        line = line_graph_network(star)
        assert line.num_nodes == 5
        assert line.num_edges == 10  # K5

    def test_path_line_graph_is_shorter_path(self):
        path = graphs.path_graph(6)
        line = line_graph_network(path)
        assert line.num_nodes == 5
        assert line.num_edges == 4
        assert line.max_degree == 2

    def test_lemma_5_1_independence_bound(self, medium_regular):
        line = line_graph_network(medium_regular)
        assert has_neighborhood_independence_at_most(line, 2)

    def test_empty_graph_line_graph(self):
        from repro.local_model import Network

        line = line_graph_network(Network({1: [], 2: []}))
        assert line.num_nodes == 0


class TestIdentifiers:
    def test_edge_ids_are_unique_and_cover_all_edges(self, small_regular):
        line, edge_ids = build_line_graph_network(small_regular)
        assert len(edge_ids) == small_regular.num_edges
        assert sorted(edge_ids.values()) == list(range(1, small_regular.num_edges + 1))

    def test_edge_ids_sorted_by_endpoint_pair(self, small_regular):
        line, edge_ids = build_line_graph_network(small_regular)
        pairs = {
            edge: (small_regular.unique_id(edge[0]), small_regular.unique_id(edge[1]))
            for edge in edge_ids
        }
        ordered = sorted(edge_ids, key=lambda e: edge_ids[e])
        assert [pairs[e] for e in ordered] == sorted(pairs[e] for e in ordered)

    def test_line_network_uses_the_returned_ids(self, small_regular):
        line, edge_ids = build_line_graph_network(small_regular)
        for edge, unique_id in edge_ids.items():
            assert line.unique_id(edge) == unique_id

    def test_node_ids_are_canonical_edge_tuples(self, small_regular):
        line, _ = build_line_graph_network(small_regular)
        for edge in line.nodes():
            assert isinstance(edge, tuple) and len(edge) == 2
            u, v = edge
            assert small_regular.unique_id(u) < small_regular.unique_id(v)
            assert small_regular.to_network().has_edge(u, v)


#: Networks the CSR builder is pinned against the legacy constructor on,
#: including custom (non-monotone) unique ids and mixed identifier types.
BUILDER_CASES = {
    "regular30x6": lambda: graphs.random_regular(30, 6, seed=1),
    "erdos-renyi": lambda: graphs.erdos_renyi(24, 0.3, seed=2),
    "star9": lambda: graphs.star_graph(9),
    "grid5x4": lambda: graphs.grid_graph(5, 4),
    "path6": lambda: graphs.path_graph(6),
    "two-disjoint-edges": lambda: Network.from_edges([(1, 2), (3, 4)]),
    "edgeless": lambda: Network({1: [], 2: []}),
    "empty": lambda: Network({}),
    "custom-uids": lambda: Network(
        {"a": ["b", "c"], "b": ["c", "d"], "c": [], "d": []},
        unique_ids={"a": 40, "b": 10, "c": 30, "d": 20},
    ),
    "mixed-ids": lambda: Network.from_edges([(1, "x"), ("x", (2, 3)), ((2, 3), 1)]),
}


class TestFastBuilder:
    """build_line_graph_fast == build_line_graph_network, bit for bit."""

    def test_materializes_the_exact_legacy_network(self):
        for name, maker in BUILDER_CASES.items():
            network = maker()
            legacy, edge_ids = build_line_graph_network(network)
            fast = build_line_graph_fast(network)
            assert fast.num_nodes == legacy.num_nodes, name
            assert fast.max_degree == legacy.max_degree, name
            materialized = fast.to_network()
            assert materialized.nodes() == legacy.nodes(), name
            assert materialized.unique_ids() == legacy.unique_ids(), name
            for node in legacy.nodes():
                assert materialized.neighbors(node) == legacy.neighbors(node), name
            assert {edge: fast.unique_id(edge) for edge in fast.order} == edge_ids, name

    def test_order_is_lazy_until_the_api_boundary(self, small_regular):
        fast = build_line_graph_fast(small_regular)
        assert fast._order is None  # no edge tuples were interned yet
        assert fast.num_nodes == small_regular.num_edges
        assert fast.order == build_line_graph_network(small_regular)[0].nodes()

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
        from repro.local_model import node_sort_key

        by_rank = np.argsort(meta.sort_rank)
        assert [fast.order[i] for i in by_rank.tolist()] == sorted(
            fast.order, key=node_sort_key
        )
        # The per-vertex CSR lists exactly the incident edges, ascending.
        for w, node in enumerate(g_order):
            incident = meta.vert_edges[meta.vert_indptr[w] : meta.vert_indptr[w + 1]]
            assert list(incident) == sorted(incident.tolist())
            assert [fast.order[e] for e in incident.tolist()] == [
                edge for edge in fast.order if node in edge
            ]

    def test_derived_meta_agrees_with_builder_meta(self, small_regular):
        built = build_line_graph_fast(small_regular)
        from repro.local_model.fast_network import fast_view

        legacy_fast = fast_view(line_graph_network(small_regular))
        derived = line_meta_for(legacy_fast)
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
