"""Unit tests for :class:`FastNetwork`: ``from_adjacency``, accessors and derived views."""

from __future__ import annotations

import numpy as np
import pytest

import graph_oracles

from repro.exceptions import InvalidParameterError
from repro.local_model import FastNetwork, make_scheduler, node_sort_key
from repro.verification.coloring import is_legal_vertex_coloring


class TestConstruction:
    def test_from_adjacency_symmetrizes_missing_reverse_entries(self):
        network = FastNetwork.from_adjacency({1: [2], 2: [], 3: []})
        assert network.neighbor_ids == ((2,), (1,), ())
        assert network.degrees.tolist() == [1, 1, 0]

    def test_neighbors_that_are_no_key_become_nodes(self):
        network = FastNetwork.from_adjacency({1: [2, 3]})
        assert network.order == (1, 2, 3)
        assert network.num_edges == 2

    def test_from_edges_with_isolated_nodes(self):
        network = FastNetwork.from_edge_array([0, 1], [1, 2], num_nodes=4)
        assert network.num_nodes == 4
        assert network.num_edges == 2
        assert network.degrees.tolist() == [1, 2, 1, 0]

    def test_duplicate_entries_collapse(self):
        network = FastNetwork.from_adjacency({1: [2, 2], 2: [1]})
        assert network.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(
            InvalidParameterError, match=r"^self-loop at node 1 is not allowed in the LOCAL model$"
        ):
            FastNetwork.from_adjacency({1: [1]})

    def test_empty_network(self):
        network = FastNetwork.from_adjacency({})
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
        for node, neighbors in zip(small_regular.nodes(), small_regular.neighbor_ids):
            assert list(neighbors) == sorted(neighbors, key=small_regular.unique_id)
            for neighbor in neighbors:
                assert node in small_regular.neighbor_ids[small_regular.index_of[neighbor]]

    def test_edges_are_canonical_and_unique(self, small_regular):
        edges = small_regular.edges()
        assert len(edges) == len(set(map(frozenset, edges))) == small_regular.num_edges
        for u, v in edges:
            assert small_regular.unique_id(u) < small_regular.unique_id(v)

    def test_contains_iter_len(self, triangle):
        assert 0 in triangle.index_of
        assert 99 not in triangle.index_of
        assert sorted(triangle.nodes()) == [0, 1, 2]
        assert triangle.num_nodes == len(triangle.order) == 3

    def test_degree_of_missing_node_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.unique_id(42)


class TestOrdering:
    """Node, neighbor and edge orderings follow the unique identifiers.

    Ordering by ``repr`` would sort integers lexicographically (10 before 2)
    and interleave mixed int/tuple identifier sets arbitrarily.
    """

    def test_integer_nodes_are_ordered_numerically(self):
        network = FastNetwork.from_adjacency({i: [] for i in (2, 10, 1, 30, 3)})
        assert network.nodes() == (1, 2, 3, 10, 30)
        assert network.unique_ids.tolist() == [1, 2, 3, 4, 5]

    def test_canonical_edges_follow_unique_ids_not_repr(self):
        # repr ordering would canonicalize (2, 10) as (10, 2) since "10" < "2".
        network = FastNetwork.from_adjacency({2: [10], 10: []})
        assert network.edges() == ((2, 10),)

    def test_mixed_int_and_tuple_identifiers(self):
        adjacency = {10: [(1, 2)], (1, 2): [2], 2: [], (1, 10): []}
        network = FastNetwork.from_adjacency(adjacency)
        # Integers first (numerically), then tuples (element-wise).
        assert network.nodes() == (2, 10, (1, 2), (1, 10))
        assert network.nodes() == tuple(sorted(network.nodes(), key=node_sort_key))
        assert network.unique_ids.tolist() == [1, 2, 3, 4]
        assert network.edges() == ((2, (1, 2)), (10, (1, 2)))
        assert network.neighbor_ids[network.index_of[(1, 2)]] == (2, 10)

    def test_explicit_unique_ids_drive_all_orderings(self):
        network = FastNetwork.from_adjacency(
            {1: [2, 3], 2: [3], 3: []}, unique_ids={1: 30, 2: 20, 3: 10}
        )
        assert network.nodes() == (3, 2, 1)
        assert network.neighbor_ids[network.index_of[1]] == (3, 2)
        assert network.edges() == ((3, 2), (3, 1), (2, 1))


    def test_derived_networks_preserve_ordering(self):
        network = FastNetwork.from_adjacency({i: [(i + 1) % 12] for i in range(12)})
        rows, cols = network.rows_np, network.indices
        filtered = network.filtered(edge_mask=(rows + cols) % 3 == 0)
        assert filtered.nodes() == network.nodes()
        induced, picked = network.induced(np.arange(12) % 2 == 0)
        assert induced.nodes() == tuple(range(0, 12, 2))
        assert picked.tolist() == list(range(0, 12, 2))


class TestUniqueIds:
    def test_ids_are_a_permutation_of_1_to_n(self, small_regular):
        ids = sorted(small_regular.unique_id(node) for node in small_regular.nodes())
        assert ids == list(range(1, small_regular.num_nodes + 1))

    def test_explicit_ids_respected(self):
        network = FastNetwork.from_adjacency({1: [2], 2: []}, unique_ids={1: 7, 2: 3})
        assert network.unique_id(1) == 7
        assert network.unique_id(2) == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"^unique_ids must be distinct$"):
            FastNetwork.from_adjacency({1: [2], 2: []}, unique_ids={1: 5, 2: 5})

    def test_missing_ids_rejected(self):
        with pytest.raises(InvalidParameterError) as failure:
            FastNetwork.from_adjacency({1: [2], 2: [], "x": [3]}, unique_ids={1: 5})
        assert str(failure.value) == "unique_ids missing entries for nodes: [2, 'x', 3]"


class TestDerivedNetworks:
    def test_filtered_by_edge_keeps_all_nodes(self, small_regular):
        filtered = small_regular.filtered(edge_mask=np.zeros(len(small_regular.indices), bool))
        assert filtered.num_nodes == small_regular.num_nodes
        assert filtered.num_edges == 0

    def test_filtered_by_edge_preserves_unique_ids(self, small_regular):
        filtered = small_regular.filtered(edge_mask=same_parity(small_regular))
        for node in small_regular.nodes():
            assert filtered.unique_id(node) == small_regular.unique_id(node)

    def test_filtered_by_edge_is_subset(self, small_regular):
        filtered = small_regular.filtered(edge_mask=same_parity(small_regular))
        original_edges = set(map(frozenset, small_regular.edges()))
        assert 0 < filtered.num_edges < small_regular.num_edges
        for u, v in filtered.edges():
            assert frozenset((u, v)) in original_edges
            assert u % 2 == v % 2

    def test_induced_subgraph(self, fig1_graph):
        clique = np.array([node[0] == "clique" for node in fig1_graph.nodes()])
        induced, _ = fig1_graph.induced(clique)
        assert induced.num_nodes == int(clique.sum())
        assert induced.max_degree == int(clique.sum()) - 1

    def test_induced_subgraph_wrong_mask_length_rejected(self, triangle):
        with pytest.raises(InvalidParameterError, match="one entry per node"):
            triangle.induced(np.ones(2, dtype=bool))


def same_parity(network: FastNetwork) -> np.ndarray:
    """The edge mask keeping the entries whose endpoints share a parity."""
    return network.rows_np % 2 == network.indices % 2


#: Hand-built graphs and the view the dict-adjacency ``Network`` compiled to
#: for them: ``(order, unique_ids, indptr, indices)``, recorded before that
#: class was removed.
RECORDED_VIEWS = {
    "mixed-ids": (
        ({10: [(1, 2)], (1, 2): [2], 2: [], (1, 10): []}, None),
        ((2, 10, (1, 2), (1, 10)), [1, 2, 3, 4], [0, 1, 2, 4, 4], [2, 2, 0, 1]),
    ),
    "custom-uids": (
        (
            {"a": ["b", "c"], "b": ["c", "d"], "c": [], "d": []},
            {"a": 40, "b": 10, "c": 30, "d": 20},
        ),
        (("b", "d", "c", "a"), [10, 20, 30, 40], [0, 3, 4, 6, 8], [1, 2, 3, 0, 0, 3, 0, 2]),
    ),
    "asymmetric": (
        ({3: [1, 7], 1: [2], 30: [3, 2], 2: []}, None),
        ((1, 2, 3, 7, 30), [1, 2, 3, 4, 5], [0, 2, 4, 7, 8, 10], [1, 2, 0, 4, 0, 3, 4, 2, 1, 2]),
    ),
}


@pytest.mark.parametrize("case", sorted(RECORDED_VIEWS))
def test_from_adjacency_matches_the_recorded_views(case):
    (adjacency, unique_ids), (order, ids, indptr, indices) = RECORDED_VIEWS[case]
    network = FastNetwork.from_adjacency(adjacency, unique_ids=unique_ids)
    assert network.order == order
    assert network.unique_ids.tolist() == ids
    assert network.indptr.tolist() == indptr
    assert network.indices.tolist() == indices


def test_hand_built_line_graph_keeps_the_builder_ids(small_regular):
    line = graph_oracles.line_graph_network(small_regular)
    np.testing.assert_array_equal(line.unique_ids, np.arange(1, line.num_nodes + 1))
    assert list(line.order) == graph_oracles.edges(small_regular)


class TestOnlyFastNetworks:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_make_scheduler_rejects_a_mapping(self, engine):
        with pytest.raises(InvalidParameterError, match="got dict; .*from_adjacency"):
            make_scheduler({1: [2], 2: [1]}, engine=engine)

    def test_verification_rejects_a_list(self):
        with pytest.raises(InvalidParameterError, match="got list; .*from_adjacency"):
            is_legal_vertex_coloring([[1], [0]], {0: 1, 1: 2})
