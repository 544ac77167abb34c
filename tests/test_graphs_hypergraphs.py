"""Unit tests for r-hypergraphs and their line graphs.

``hypergraph_line_graph`` emits each vertex's clique of hyperedges as
endpoint arrays; the pairwise oracle in ``graph_oracles`` tests every pair of
hyperedges instead, and the two must agree array for array.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracles import assert_hypergraph_line_graph_matches, hyperedge_violation
from repro import graphs
from repro.core import color_vertices
from repro.exceptions import HypergraphError
from repro.graphs.hypergraphs import Hypergraph, hypergraph_line_graph, random_r_hypergraph
from repro.local_model import build_line_graph_fast


@st.composite
def hypergraphs(draw):
    """Small hypergraphs with repeated hyperedges, shared pairs and isolated vertices."""
    rank = draw(st.integers(2, 4))
    pool = draw(st.integers(rank, 10))
    label = draw(st.sampled_from([int, str, lambda v: (v % 3, v)]))
    hyperedges = draw(
        st.lists(st.frozensets(st.integers(0, pool - 1), min_size=1, max_size=rank), max_size=30)
    )
    if hyperedges:
        repeats = draw(st.lists(st.sampled_from(hyperedges), max_size=6))
        hyperedges = draw(st.permutations(hyperedges + repeats))
    hypergraph = Hypergraph(rank=rank)
    for vertex in range(pool + draw(st.integers(0, 3))):
        hypergraph.add_vertex(label(vertex))
    for hyperedge in hyperedges:
        hypergraph.add_edge(map(label, hyperedge))
    return hypergraph


class TestHypergraph:
    def test_add_vertices_and_edges(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_vertex("a")
        index = hypergraph.add_edge(["a", "b", "c"])
        assert index == 0
        assert hypergraph.num_vertices == 3
        assert hypergraph.num_edges == 1
        assert hypergraph.max_edge_size() == 3

    def test_rank_bound_enforced(self):
        hypergraph = Hypergraph(rank=2)
        with pytest.raises(HypergraphError):
            hypergraph.add_edge([1, 2, 3])

    def test_unbounded_rank_allows_large_edges(self):
        hypergraph = Hypergraph()
        hypergraph.add_edge(range(10))
        assert hypergraph.max_edge_size() == 10

    def test_empty_edge_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph(rank=3).add_edge([])

    def test_vertex_degree(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2])
        hypergraph.add_edge([2, 3])
        hypergraph.add_edge([2, 4, 5])
        assert hypergraph.vertex_degree(2) == 3
        assert hypergraph.vertex_degree(1) == 1
        assert hypergraph.max_vertex_degree() == 3

    def test_duplicate_vertices_within_edge_collapse(self):
        hypergraph = Hypergraph(rank=2)
        hypergraph.add_edge([1, 1])
        assert hypergraph.max_edge_size() == 1

    def test_vertices_are_sorted_and_deduplicated(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([3, 1])
        hypergraph.add_edge([1, 2])
        assert hypergraph.vertices == (1, 2, 3)


class TestHypergraphLineGraph:
    def test_adjacency_is_vertex_sharing(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2, 3])  # edge 0
        hypergraph.add_edge([3, 4])     # edge 1 (shares vertex 3 with edge 0)
        hypergraph.add_edge([5, 6])     # edge 2 (disjoint)
        line = hypergraph_line_graph(hypergraph)
        assert line.edges() == ((0, 1),)

    def test_pair_sharing_two_vertices_is_one_edge(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2, 3])
        hypergraph.add_edge([2, 3, 4])
        hypergraph.add_edge([1, 2, 3])  # a repeat meets both
        line = hypergraph_line_graph(hypergraph)
        assert line.edges() == ((0, 1), (0, 2), (1, 2))
        assert line.indices.tolist() == [1, 2, 0, 2, 0, 1]

    def test_no_hyperedges(self):
        hypergraph = Hypergraph(rank=2)
        hypergraph.add_vertex("lonely")
        line = hypergraph_line_graph(hypergraph)
        assert line.num_nodes == 0 and line.num_edges == 0
        assert hypergraph.max_vertex_degree() == 0

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_matches_the_pairwise_oracle(self, hypergraph):
        assert_hypergraph_line_graph_matches(hypergraph, hypergraph_line_graph(hypergraph))

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_random_hypergraphs_match_the_pairwise_oracle(self, rank):
        hypergraph = random_r_hypergraph(40, 120, rank, seed=rank)
        assert_hypergraph_line_graph_matches(hypergraph, hypergraph_line_graph(hypergraph))

    @pytest.mark.parametrize(
        "base",
        [
            graphs.erdos_renyi(30, 0.2, seed=3),
            graphs.random_regular(24, 5, seed=1),
            graphs.barabasi_albert(40, 3, seed=2),
            graphs.star_graph(6),
        ],
        ids=["erdos-renyi", "regular", "barabasi-albert", "star"],
    )
    def test_rank_two_is_the_line_graph_of_the_graph(self, base):
        # A graph's edges as 2-hyperedges, in L(G)'s node order: hyperedge i
        # is L(G)'s node with unique id i + 1.
        line = build_line_graph_fast(base)
        hypergraph = Hypergraph(rank=2)
        for edge in line.order:
            hypergraph.add_edge(edge)
        line_h = hypergraph_line_graph(hypergraph)
        assert line_h.unique_ids.tolist() == line.unique_ids.tolist()

        def uid_pairs(view):
            uids = view.unique_ids
            rows, cols = view.rows_np, view.indices
            return set(zip(uids[rows].tolist(), uids[cols].tolist()))

        assert uid_pairs(line_h) == uid_pairs(line)

    def test_line_graph_node_count(self):
        hypergraph = random_r_hypergraph(num_vertices=12, num_edges=15, rank=3, seed=4)
        line = hypergraph_line_graph(hypergraph)
        assert line.num_nodes == hypergraph.num_edges

    def test_line_graph_degree_bound(self):
        # An edge of size <= r meets at most r * (max vertex degree - 1) others.
        hypergraph = random_r_hypergraph(num_vertices=12, num_edges=15, rank=3, seed=4)
        line = hypergraph_line_graph(hypergraph)
        bound = 3 * max(1, hypergraph.max_vertex_degree() - 1) + 3
        assert line.max_degree <= bound


class TestHyperedgeColoring:
    def test_c_equals_r_coloring_is_legal_on_the_incidence(self):
        hypergraph = random_r_hypergraph(1000, 2000, 3, seed=7)
        line = hypergraph_line_graph(hypergraph)
        result = color_vertices(line, c=3, quality="superlinear")
        assert hypergraph.num_edges > 1900
        assert hyperedge_violation(hypergraph, result.colors) is None
        assert max(result.colors.values()) <= result.palette

    def test_incidence_oracle_reports_a_shared_vertex(self):
        hypergraph = Hypergraph(rank=3)
        hypergraph.add_edge([1, 2, 3])
        hypergraph.add_edge([4, 5])
        hypergraph.add_edge([3, 6])
        assert hyperedge_violation(hypergraph, {0: 1, 1: 1, 2: 2}) is None
        assert hyperedge_violation(hypergraph, {0: 1, 1: 2, 2: 1}) == (0, 2, 3)


class TestRandomHypergraph:
    def test_deterministic_given_seed(self):
        a = random_r_hypergraph(10, 12, 3, seed=2)
        b = random_r_hypergraph(10, 12, 3, seed=2)
        assert a.edges == b.edges

    def test_duplicate_draws_are_skipped_first_one_wins(self):
        # 3 vertices and rank 2 leave 3 possible hyperedges for 50 draws.
        hypergraph = random_r_hypergraph(3, 50, 2, seed=4, exact_size=True)
        assert len(hypergraph.edges) == len(set(hypergraph.edges)) == 3
        assert hypergraph.num_vertices == 3

    def test_vertices_are_drawn_without_replacement_and_uniformly(self):
        hypergraph = random_r_hypergraph(6, 3000, 4, seed=9, exact_size=True)
        assert all(len(edge) == 4 for edge in hypergraph.edges)
        assert hypergraph.num_edges == 15  # every 4-subset of 6 vertices turns up
        counts = [0] * 6
        draws = random_r_hypergraph(1000, 6000, 3, seed=9, exact_size=True)
        for edge in draws.edges:
            for vertex in edge:
                counts[vertex // 167] += 1
        # Six buckets of ~167 vertices share ~18k memberships evenly.
        assert max(counts) - min(counts) < 0.1 * max(counts)

    def test_rank_respected(self):
        hypergraph = random_r_hypergraph(15, 30, 4, seed=1)
        assert hypergraph.max_edge_size() <= 4

    def test_exact_size_edges(self):
        hypergraph = random_r_hypergraph(15, 10, 3, seed=1, exact_size=True)
        assert all(len(edge) == 3 for edge in hypergraph.edges)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(HypergraphError):
            random_r_hypergraph(10, 5, 1, seed=1)
        with pytest.raises(HypergraphError):
            random_r_hypergraph(2, 5, 3, seed=1)
