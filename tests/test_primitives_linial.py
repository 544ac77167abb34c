"""Unit tests for Linial's O(Delta^2)-coloring (Lemma 2.1(1))."""

from __future__ import annotations

import pytest

from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.local_model import Scheduler
from repro.primitives.linial import LinialColoringPhase, linial_final_palette, linial_schedule
from repro.primitives.numbers import log_star
from repro.verification.coloring import assert_legal_vertex_coloring, max_color


def run_linial(network, degree_bound=None, initial_palette=None):
    degree_bound = degree_bound if degree_bound is not None else network.max_degree
    initial_palette = initial_palette or network.num_nodes
    phase = LinialColoringPhase(degree_bound=degree_bound, initial_palette=initial_palette)
    result = Scheduler(network).run(phase)
    return result.extract(phase.output_key), result.metrics, phase


class TestSchedule:
    def test_zero_degree_graph_needs_no_rounds(self):
        schedule, palette = linial_schedule(100, 0)
        assert schedule == []
        assert palette == 1

    def test_final_palette_quadratic_in_degree(self):
        for delta in (2, 3, 5, 8, 16, 32, 64):
            final = linial_final_palette(10_000, delta)
            assert final <= 9 * (delta + 2) ** 2

    def test_final_palette_never_exceeds_initial(self):
        for n in (10, 100, 1000):
            for delta in (1, 2, 4, 8):
                assert linial_final_palette(n, delta) <= n

    def test_palette_strictly_decreases_along_schedule(self):
        schedule, final = linial_schedule(10**6, 8)
        palettes = [entry[2] for entry in schedule] + [final]
        assert palettes == sorted(palettes, reverse=True)
        assert len(set(palettes)) == len(palettes)

    def test_number_of_rounds_is_log_star_like(self):
        # The number of recoloring rounds grows extremely slowly with n.
        for n, bound in ((10**3, 4), (10**6, 5), (10**9, 6)):
            schedule, _ = linial_schedule(n, 4)
            assert len(schedule) <= bound + log_star(n)

    def test_each_step_uses_prime_exceeding_degree_times_poly_degree(self):
        schedule, _ = linial_schedule(10**5, 6)
        for q, digits, palette in schedule:
            assert q > 6 * (digits - 1)
            assert q**digits >= palette

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            linial_schedule(0, 3)
        with pytest.raises(InvalidParameterError):
            linial_schedule(10, -1)


class TestDistributedExecution:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: graphs.cycle_graph(9),
            lambda: graphs.random_regular(30, 4, seed=2),
            lambda: graphs.clique_with_pendants(7),
            lambda: graphs.complete_graph(8),
            lambda: graphs.grid_graph(5, 4),
        ],
    )
    def test_produces_legal_coloring_within_declared_palette(self, maker):
        network = maker()
        colors, metrics, phase = run_linial(network)
        assert_legal_vertex_coloring(network, colors)
        assert max_color(colors) <= phase.final_palette
        assert metrics.rounds == max(1, len(phase.schedule))

    def test_edgeless_graph_gets_single_color(self):
        from repro.local_model import FastNetwork

        network = FastNetwork.from_adjacency({i: [] for i in range(5)})
        colors, metrics, phase = run_linial(network, degree_bound=0)
        assert set(colors.values()) == {1}

    def test_isolated_vertices_mixed_with_edges(self):
        from repro.local_model import FastNetwork

        network = FastNetwork.from_adjacency({1: [2], 2: [3], 10: [], 11: []})
        colors, _, phase = run_linial(network)
        assert_legal_vertex_coloring(network, colors)

    def test_accepts_existing_coloring_as_input(self, small_regular):
        # Feed the auxiliary-coloring path: start from a legal coloring with a
        # small palette and a smaller degree bound.
        base_colors, _, base_phase = run_linial(small_regular)
        initial_states = {
            node: {"rho": color} for node, color in base_colors.items()
        }
        phase = LinialColoringPhase(
            degree_bound=small_regular.max_degree,
            initial_palette=base_phase.final_palette,
            input_key="rho",
            output_key="refined",
        )
        result = Scheduler(small_regular).run(phase, initial_states=initial_states)
        refined = result.extract("refined")
        assert_legal_vertex_coloring(small_regular, refined)
        assert max_color(refined) <= phase.final_palette

    def test_out_of_range_initial_color_rejected(self, triangle):
        phase = LinialColoringPhase(degree_bound=2, initial_palette=2, input_key="c")
        with pytest.raises(InvalidParameterError):
            Scheduler(triangle).run(
                phase, initial_states={node: {"c": 5} for node in triangle.nodes()}
            )

    def test_message_sizes_are_single_words(self):
        # Use a large, sparse graph so the schedule is non-empty and messages
        # actually flow; each message carries exactly one color (one word).
        network = graphs.cycle_graph(200)
        _, metrics, phase = run_linial(network)
        assert len(phase.schedule) >= 1
        assert metrics.max_message_words == 1

    def test_deterministic_across_runs(self, small_regular):
        first, _, _ = run_linial(small_regular)
        second, _, _ = run_linial(small_regular)
        assert first == second
