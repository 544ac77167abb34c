"""Unit tests for the Lemma 5.2 simulation layer and the copy glue phase."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.local_model import make_scheduler
from repro.local_model.line_graph_sim import simulate_on_line_graph
from repro.primitives.linial import LinialColoringPhase
from repro.primitives.util_phases import CopyKeyPhase
from repro.verification.coloring import assert_legal_vertex_coloring


class TestSimulateOnLineGraph:
    def test_outputs_keyed_by_canonical_edges(self, small_regular):
        phase = LinialColoringPhase(
            degree_bound=2 * small_regular.max_degree,
            initial_palette=small_regular.num_edges,
            output_key="color",
        )
        result = simulate_on_line_graph(small_regular, phase)
        assert set(result.edge_states.keys()) == set(result.line_fast.nodes())
        assert len(result.edge_states) == small_regular.num_edges

    def test_round_accounting_doubles_plus_setup(self):
        network = graphs.random_regular(40, 4, seed=1)
        phase = LinialColoringPhase(
            degree_bound=2 * network.max_degree,
            initial_palette=network.num_edges,
            output_key="color",
        )
        result = simulate_on_line_graph(network, phase)
        assert result.metrics.rounds == 2 * result.line_graph_metrics.rounds + 1

    def test_message_size_scaled_by_degree(self):
        network = graphs.random_regular(40, 4, seed=1)
        phase = LinialColoringPhase(
            degree_bound=2 * network.max_degree,
            initial_palette=network.num_edges,
            output_key="color",
        )
        result = simulate_on_line_graph(network, phase)
        if result.line_graph_metrics.max_message_words:
            assert (
                result.metrics.max_message_words
                == result.line_graph_metrics.max_message_words * network.max_degree
            )

    def test_simulated_coloring_is_legal_on_the_line_graph(self, small_regular):
        phase = LinialColoringPhase(
            degree_bound=2 * small_regular.max_degree,
            initial_palette=small_regular.num_edges,
            output_key="color",
        )
        result = simulate_on_line_graph(small_regular, phase)
        colors = {edge: state["color"] for edge, state in result.edge_states.items()}
        assert_legal_vertex_coloring(result.line_fast, colors)


class TestCopyKeyPhase:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_copy_key_phase(self, triangle, engine):
        result = make_scheduler(triangle, engine=engine).run(
            CopyKeyPhase("a", "b"),
            initial_states={node: {"a": triangle.unique_id(node)} for node in triangle.nodes()},
        )
        assert result.extract("b") == {node: triangle.unique_id(node) for node in triangle.nodes()}
        assert result.metrics.rounds == 0
