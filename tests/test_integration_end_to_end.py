"""Integration tests: full pipelines across modules, checked against the
paper's quantitative guarantees on every workload family."""

from __future__ import annotations

import pytest

import graph_oracles
from graph_oracles import line_graph_network

from repro import graphs
from repro.baselines import (
    greedy_sequential_edge_coloring,
    luby_edge_coloring,
    panconesi_rizzi_edge_coloring,
)
from repro.core import color_edges, color_vertices, run_defective_color
from repro.core.parameters import params_for_few_rounds
from repro.core.legal_coloring import run_legal_coloring
from repro.graphs.hypergraphs import hypergraph_line_graph, random_r_hypergraph
from repro.graphs.properties import has_neighborhood_independence_at_most
from repro.verification.coloring import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
    coloring_defect,
    max_color,
)


EDGE_WORKLOADS = [
    ("random-regular", lambda: graphs.random_regular(40, 8, seed=11)),
    ("erdos-renyi", lambda: graphs.erdos_renyi(40, 0.2, seed=12)),
    ("bipartite-switch", lambda: graphs.random_bipartite_regular(16, 6, seed=13)),
    ("power-law", lambda: graphs.barabasi_albert(40, 4, seed=14)),
    ("grid", lambda: graphs.grid_graph(6, 6)),
]


class TestEdgeColoringAgainstBaselines:
    @pytest.mark.parametrize("name,maker", EDGE_WORKLOADS)
    def test_all_algorithms_agree_on_legality(self, name, maker):
        network = maker()
        new_fast = color_edges(network, quality="superlinear", route="direct")
        new_linear = color_edges(network, quality="linear", route="direct")
        baseline = panconesi_rizzi_edge_coloring(network)
        oracle = greedy_sequential_edge_coloring(network)

        for label, coloring in [
            ("new-superlinear", new_fast.edge_colors),
            ("new-linear", new_linear.edge_colors),
            ("baseline-pr", baseline.edge_colors),
            ("oracle", oracle),
        ]:
            assert_legal_edge_coloring(network, coloring, context=label)

    @pytest.mark.parametrize("name,maker", EDGE_WORKLOADS[:3])
    def test_new_algorithm_beats_baseline_rounds_at_moderate_degree(self, name, maker):
        network = maker()
        new_fast = color_edges(network, quality="superlinear", route="direct")
        baseline = panconesi_rizzi_edge_coloring(network)
        # Table 1's qualitative claim at moderate Delta: the new algorithm
        # needs fewer rounds than the (2 Delta - 1)-coloring baseline, at the
        # price of more colors.
        assert new_fast.metrics.rounds < baseline.metrics.rounds

    def test_randomized_baseline_uses_fewer_colors_but_is_randomized(self):
        network = graphs.random_regular(40, 8, seed=15)
        new_fast = color_edges(network, quality="superlinear", route="direct")
        randomized = luby_edge_coloring(network, seed=1)
        assert randomized.palette <= 2 * network.max_degree - 1
        assert new_fast.colors_used >= network.max_degree


class TestVertexColoringOnBoundedIndependenceFamilies:
    @pytest.mark.parametrize(
        "name,maker,c",
        [
            ("fig1", lambda: graphs.clique_with_pendants(14), 2),
            ("line-graph", lambda: line_graph_network(graphs.random_regular(30, 6, seed=16)), 2),
            (
                "hypergraph-line-graph",
                lambda: hypergraph_line_graph(
                    random_r_hypergraph(num_vertices=24, num_edges=50, rank=3, seed=17)
                ),
                3,
            ),
            ("claw-free-clique", lambda: graphs.complete_graph(12), 1),
        ],
    )
    def test_family_membership_and_coloring(self, name, maker, c):
        network = maker()
        assert has_neighborhood_independence_at_most(network, c)
        result = color_vertices(network, c=c, quality="superlinear")
        assert_legal_vertex_coloring(network, result.colors)
        assert max_color(result.colors) <= result.palette


class TestDefectiveToLegalPipeline:
    def test_manual_recursion_matches_procedure_guarantees(self):
        # Reproduce one level of Legal-Color "by hand": Defective-Color, then a
        # legal coloring of every class, then merge palettes -- and check the
        # same invariants the procedure relies on.
        base = graphs.random_regular(36, 8, seed=18)
        line = line_graph_network(base)
        Lambda = line.max_degree
        p = 4
        b = max(1, Lambda // (3 * p))
        psi, info, _ = run_defective_color(line, b=b, p=p, c=2)
        assert coloring_defect(line, psi) <= info.psi_defect_bound

        filtered = graph_oracles.filtered_by_edge(line, lambda u, v: psi[u] == psi[v])
        assert filtered.max_degree <= info.psi_defect_bound

        params = params_for_few_rounds(max(1, filtered.max_degree), c=2)
        per_class = run_legal_coloring(filtered, params, c=2)
        merged = {
            node: (psi[node] - 1) * per_class.palette + per_class.colors[node]
            for node in line.nodes()
        }
        assert_legal_vertex_coloring(line, merged)
        assert max_color(merged) <= p * per_class.palette


class TestMessageSizeGuarantees:
    def test_direct_route_messages_independent_of_delta(self):
        # Theorem 5.5(2): with constant p, the direct edge-coloring variant
        # uses O(log n)-size (i.e. O(1)-word) messages, no matter the degree.
        sizes = []
        for degree in (6, 10, 14):
            network = graphs.random_regular(32, degree, seed=degree)
            result = color_edges(network, quality="superlinear", route="direct")
            sizes.append(result.metrics.max_message_words)
        assert max(sizes) <= max(result.parameters.p, 4)

    def test_simulation_route_messages_grow_with_delta(self):
        small = color_edges(
            graphs.random_regular(32, 4, seed=1), quality="superlinear", route="simulation"
        )
        large = color_edges(
            graphs.random_regular(32, 12, seed=1), quality="superlinear", route="simulation"
        )
        assert large.metrics.max_message_words > small.metrics.max_message_words
