"""Unit tests for the Lemma 5.2 accounting.

The library's Lemma 5.2 routes -- ``color_edges(route="simulation")`` and
the line-graph ``Delta + 1`` baselines -- run their vertex-coloring
algorithm on ``L(G)`` and charge its cost on ``G``: every ``L(G)`` round
costs two ``G`` rounds plus one setup round, and every message grows by the
load factor ``Delta(G)``.  These tests rerun the same algorithm on ``L(G)``
directly and check the charge, phase by phase, and check that the
simulation route's edge colors are keyed by ``G``'s edges and legal on
``L(G)``.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.baselines import panconesi_rizzi_edge_coloring
from repro.core import color_edges, params_for_quality, run_legal_coloring
from repro.core.edge_coloring import LINE_GRAPH_INDEPENDENCE
from repro.local_model import Scheduler, build_line_graph_fast
from repro.local_model.line_graph_sim import SIMULATION_SETUP_ROUNDS
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.verification.coloring import assert_legal_edge_coloring, assert_legal_vertex_coloring


def _legal_color_on_line_graph(network):
    """The raw ``L(G)`` metrics of ``color_edges(route="simulation")``."""
    line = build_line_graph_fast(network)
    params = params_for_quality(
        "superlinear", max(1, line.max_degree), LINE_GRAPH_INDEPENDENCE, 0.75
    )
    return run_legal_coloring(line, params, c=LINE_GRAPH_INDEPENDENCE).metrics


def _panconesi_rizzi_on_line_graph(network):
    """The raw ``L(G)`` metrics of ``panconesi_rizzi_edge_coloring``."""
    line = build_line_graph_fast(network)
    pipeline, _ = delta_plus_one_pipeline(
        n=line.num_nodes,
        degree_bound=max(1, line.max_degree),
        output_key="_pr_color",
        use_kuhn_wattenhofer=True,
    )
    return Scheduler(line).run(pipeline).metrics


ROUTES = {
    "color_edges-simulation": (
        lambda network: color_edges(network, quality="superlinear", route="simulation"),
        _legal_color_on_line_graph,
    ),
    "panconesi_rizzi": (panconesi_rizzi_edge_coloring, _panconesi_rizzi_on_line_graph),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
class TestLemma52Accounting:
    def _run(self, route):
        network = graphs.random_regular(40, 4, seed=1)
        run, raw = ROUTES[route]
        result = run(network)
        assert_legal_edge_coloring(network, result.edge_colors)
        return network, result.metrics, raw(network)

    def test_round_accounting_doubles_plus_setup(self, route):
        _, metrics, raw = self._run(route)
        assert raw.rounds > 0
        assert metrics.rounds == 2 * raw.rounds + SIMULATION_SETUP_ROUNDS == 2 * raw.rounds + 1
        setup, *phases = metrics.phases
        assert (setup.name, setup.rounds) == ("lemma-5.2-setup", 1)
        assert [phase.rounds for phase in phases] == [2 * p.rounds for p in raw.phases]

    def test_message_size_scaled_by_degree(self, route):
        network, metrics, raw = self._run(route)
        assert raw.max_message_words > 0
        assert metrics.max_message_words == raw.max_message_words * network.max_degree
        assert [phase.max_message_words for phase in metrics.phases[1:]] == [
            p.max_message_words * network.max_degree for p in raw.phases
        ]



class TestSimulateOnLineGraph:
    """What ``color_edges(route="simulation")`` hands back from ``L(G)``."""

    def _simulate(self, network):
        return color_edges(network, quality="superlinear", route="simulation")

    def test_outputs_keyed_by_canonical_edges(self, small_regular):
        result = self._simulate(small_regular)
        assert set(result.edge_colors) == set(build_line_graph_fast(small_regular).nodes())
        assert set(result.edge_colors) == set(small_regular.edges())
        assert len(result.edge_colors) == small_regular.num_edges

    def test_simulated_coloring_is_legal_on_the_line_graph(self, small_regular):
        result = self._simulate(small_regular)
        assert_legal_vertex_coloring(build_line_graph_fast(small_regular), result.edge_colors)
