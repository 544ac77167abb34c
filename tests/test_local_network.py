"""Unit tests for :mod:`repro.local_model.network`."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.local_model import Network


# The shared fixtures are array-built; this module tests the mapping-based
# Network, so it materializes each of them.
@pytest.fixture
def small_regular(small_regular):
    return small_regular.to_network()


@pytest.fixture
def triangle(triangle):
    return triangle.to_network()


@pytest.fixture
def fig1_graph(fig1_graph):
    return fig1_graph.to_network()


class TestConstruction:
    def test_from_adjacency_symmetrizes_missing_reverse_entries(self):
        network = Network({1: [2], 2: [], 3: []})
        assert network.has_edge(2, 1)
        assert network.degree(2) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            Network({1: [1]})

    def test_from_edges_with_isolated_nodes(self):
        network = Network.from_edges([(1, 2), (2, 3)], isolated_nodes=[9])
        assert network.num_nodes == 4
        assert network.degree(9) == 0

    def test_empty_network(self):
        network = Network({})
        assert network.num_nodes == 0
        assert network.num_edges == 0
        assert network.max_degree == 0
        assert network.nodes() == ()


class TestAccessors:
    def test_basic_counts(self, small_regular):
        assert small_regular.num_nodes == 24
        assert small_regular.max_degree == 4
        assert small_regular.num_edges == 24 * 4 // 2

    def test_neighbors_are_sorted_and_consistent(self, small_regular):
        for node in small_regular.nodes():
            neighbors = small_regular.neighbors(node)
            assert list(neighbors) == sorted(neighbors, key=small_regular.unique_id)
            for neighbor in neighbors:
                assert small_regular.has_edge(node, neighbor)
                assert small_regular.has_edge(neighbor, node)

    def test_edges_are_canonical_and_unique(self, small_regular):
        edges = small_regular.edges()
        assert len(edges) == len(set(map(frozenset, edges)))

    def test_contains_iter_len(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert sorted(triangle) == [0, 1, 2]
        assert len(triangle) == 3

    def test_degree_of_missing_node_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.degree(42)


class TestOrdering:
    """Regression tests for the repr-ordering bug.

    Node, neighbor and edge orderings used to be derived from ``repr``, which
    sorts integers lexicographically (10 before 2) and interleaves mixed
    int/tuple identifier sets arbitrarily.  All orderings now follow the
    assigned unique identifiers.
    """

    def test_integer_nodes_are_ordered_numerically(self):
        network = Network({i: [] for i in (2, 10, 1, 30, 3)})
        assert network.nodes() == (1, 2, 3, 10, 30)
        assert [network.unique_id(node) for node in network.nodes()] == [1, 2, 3, 4, 5]

    def test_canonical_edges_follow_unique_ids_not_repr(self):
        # repr ordering would canonicalize (2, 10) as (10, 2) since "10" < "2".
        network = Network({2: [10], 10: []})
        assert network.edges() == ((2, 10),)

    def test_mixed_int_and_tuple_identifiers(self):
        # A graph mixing plain integers with edge-tuple identifiers (as appears
        # when original-graph and line-graph style ids are combined).
        adjacency = {10: [(1, 2)], (1, 2): [2], 2: [], (1, 10): []}
        network = Network(adjacency)
        # Integers first (numerically), then tuples (element-wise).
        assert network.nodes() == (2, 10, (1, 2), (1, 10))
        ids = [network.unique_id(node) for node in network.nodes()]
        assert ids == [1, 2, 3, 4]
        # Canonical edges are oriented by unique id: 2 and 10 precede the tuples.
        assert network.edges() == ((2, (1, 2)), (10, (1, 2)))
        # Neighbor lists are ordered by unique id too.
        assert network.neighbors((1, 2)) == (2, 10)

    def test_explicit_unique_ids_drive_all_orderings(self):
        network = Network({1: [2, 3], 2: [3], 3: []}, unique_ids={1: 30, 2: 20, 3: 10})
        assert network.nodes() == (3, 2, 1)
        assert network.neighbors(1) == (3, 2)
        assert network.edges() == ((3, 2), (3, 1), (2, 1))

    def test_derived_networks_preserve_ordering(self):
        network = Network({i: [(i + 1) % 12] for i in range(12)})
        filtered = network.filtered_by_edge(lambda u, v: (u + v) % 3 == 0)
        assert filtered.nodes() == network.nodes()
        induced = network.induced_subgraph(range(0, 12, 2))
        assert induced.nodes() == tuple(range(0, 12, 2))


class TestUniqueIds:
    def test_ids_are_a_permutation_of_1_to_n(self, small_regular):
        ids = sorted(small_regular.unique_id(node) for node in small_regular.nodes())
        assert ids == list(range(1, small_regular.num_nodes + 1))

    def test_explicit_ids_respected(self):
        network = Network({1: [2], 2: []}, unique_ids={1: 7, 2: 3})
        assert network.unique_id(1) == 7
        assert network.unique_id(2) == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            Network({1: [2], 2: []}, unique_ids={1: 5, 2: 5})

    def test_missing_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            Network({1: [2], 2: []}, unique_ids={1: 5})


class TestDerivedNetworks:
    def test_filtered_by_edge_keeps_all_nodes(self, small_regular):
        filtered = small_regular.filtered_by_edge(lambda u, v: False)
        assert filtered.num_nodes == small_regular.num_nodes
        assert filtered.num_edges == 0

    def test_filtered_by_edge_preserves_unique_ids(self, small_regular):
        filtered = small_regular.filtered_by_edge(lambda u, v: u % 2 == v % 2)
        for node in small_regular.nodes():
            assert filtered.unique_id(node) == small_regular.unique_id(node)

    def test_filtered_by_edge_is_subset(self, small_regular):
        filtered = small_regular.filtered_by_edge(lambda u, v: u % 2 == v % 2)
        original_edges = set(map(frozenset, small_regular.edges()))
        for edge in filtered.edges():
            assert frozenset(edge) in original_edges

    def test_induced_subgraph(self, fig1_graph):
        clique_nodes = [node for node in fig1_graph.nodes() if node[0] == "clique"]
        induced = fig1_graph.induced_subgraph(clique_nodes)
        assert induced.num_nodes == len(clique_nodes)
        assert induced.max_degree == len(clique_nodes) - 1

    def test_induced_subgraph_unknown_node_rejected(self, triangle):
        with pytest.raises(InvalidParameterError):
            triangle.induced_subgraph([0, "nope"])

    def test_create_nodes_matches_structure(self, triangle):
        nodes = triangle.create_nodes()
        assert set(nodes) == set(triangle.nodes())
        for node_id, node in nodes.items():
            assert node.degree == triangle.degree(node_id)
            assert node.unique_id == triangle.unique_id(node_id)
