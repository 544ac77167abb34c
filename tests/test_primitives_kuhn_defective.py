"""Unit tests for the defective coloring primitives (Lemma 2.1(3), Cor 5.4)."""

from __future__ import annotations

import pytest

from engine_configs import ARRAY_CONFIGS, engine_config
from graph_oracles import line_graph_network

from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.local_model import Scheduler
from repro.primitives.kuhn_defective import (
    DefectiveStepPhase,
    defective_coloring_pipeline,
    defective_step_parameters,
)
from repro.primitives.kuhn_defective_edge import KuhnDefectiveEdgeColoringPhase
from repro.primitives.numbers import ceil_div
from repro.verification.coloring import coloring_defect, max_color


class TestStepParameters:
    def test_guarantee_of_the_chosen_prime(self):
        for palette in (50, 500, 5000):
            for degree in (4, 16, 64):
                for defect in (1, 2, 8):
                    q, digits = defective_step_parameters(palette, degree, defect)
                    # The best evaluation point has at most floor(degree * t / q)
                    # collisions, which must respect the budget.
                    assert (degree * (digits - 1)) // q <= defect
                    assert q**digits >= palette

    def test_large_budget_allows_tiny_prime(self):
        q, _ = defective_step_parameters(palette=100, degree_bound=4, defect_budget=100)
        assert q <= 3

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            defective_step_parameters(0, 4, 1)
        with pytest.raises(InvalidParameterError):
            defective_step_parameters(10, -1, 1)
        with pytest.raises(InvalidParameterError):
            defective_step_parameters(10, 4, 0)


class TestDefectiveVertexColoring:
    @pytest.mark.parametrize("target_defect", [1, 2, 4])
    def test_defect_and_palette_bounds(self, target_defect):
        network = graphs.random_regular(40, 8, seed=5)
        pipeline, palette = defective_coloring_pipeline(
            n=network.num_nodes,
            degree_bound=network.max_degree,
            target_defect=target_defect,
            output_key="d",
        )
        result = Scheduler(network).run(pipeline)
        colors = result.extract("d")
        assert coloring_defect(network, colors) <= target_defect
        assert max_color(colors) <= palette
        # defect * colors should stay within a constant factor of Delta^2 /
        # defect ... i.e. palette = O((Delta / defect)^2).
        ratio = network.max_degree / target_defect
        assert palette <= 36 * ratio * ratio + 36

    def test_zero_defect_request_returns_legal_coloring(self, small_regular):
        pipeline, palette = defective_coloring_pipeline(
            n=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            target_defect=0,
            output_key="d",
        )
        result = Scheduler(small_regular).run(pipeline)
        colors = result.extract("d")
        assert coloring_defect(small_regular, colors) == 0
        assert max_color(colors) <= palette

    def test_rounds_stay_small(self, medium_regular):
        pipeline, _ = defective_coloring_pipeline(
            n=medium_regular.num_nodes,
            degree_bound=medium_regular.max_degree,
            target_defect=2,
            output_key="d",
        )
        result = Scheduler(medium_regular).run(pipeline)
        # Linial's log* n rounds plus at most two defective steps.
        assert result.metrics.rounds <= 12

    def test_auxiliary_input_skips_nothing_but_stays_correct(self, small_regular):
        from repro.primitives.linial import LinialColoringPhase

        aux = LinialColoringPhase(
            degree_bound=small_regular.max_degree,
            initial_palette=small_regular.num_nodes,
            output_key="rho",
        )
        aux_result = Scheduler(small_regular).run(aux)
        pipeline, palette = defective_coloring_pipeline(
            n=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            target_defect=2,
            initial_palette=aux.final_palette,
            input_key="rho",
            output_key="d",
        )
        result = Scheduler(small_regular).run(pipeline, initial_states=aux_result.states)
        colors = result.extract("d")
        assert coloring_defect(small_regular, colors) <= 2
        assert max_color(colors) <= palette

    def test_single_step_phase_runs_one_round(self, small_regular):
        step = DefectiveStepPhase(
            palette=small_regular.num_nodes,
            degree_bound=small_regular.max_degree,
            defect_budget=2,
            input_key="seed",
            output_key="out",
        )
        seeds = {node: {"seed": small_regular.unique_id(node)} for node in small_regular.nodes()}
        result = Scheduler(small_regular).run(step, initial_states=seeds)
        assert result.metrics.rounds == 1
        assert max_color(result.extract("out")) <= step.output_palette

    def test_step_rejects_out_of_palette_colors(self, triangle):
        step = DefectiveStepPhase(
            palette=2, degree_bound=2, defect_budget=1, input_key="seed", output_key="out"
        )
        with pytest.raises(InvalidParameterError):
            Scheduler(triangle).run(
                step, initial_states={node: {"seed": 9} for node in triangle.nodes()}
            )


class TestDefectiveEdgeColoring:
    def _line_graph(self, network):
        return line_graph_network(network)

    @pytest.mark.parametrize("p_prime", [2, 3, 5])
    def test_corollary_5_4_defect_and_palette(self, p_prime):
        network = graphs.random_regular(30, 6, seed=7)
        line = self._line_graph(network)
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=p_prime, degree_bound=network.max_degree, output_key="edge_color"
        )
        result = Scheduler(line).run(phase)
        colors = result.extract("edge_color")
        assert max_color(colors) <= p_prime * p_prime
        # The defect (within the line graph) is at most 4 * ceil(Delta / p').
        assert coloring_defect(line, colors) <= 4 * ceil_div(network.max_degree, p_prime)

    def test_single_round_cost(self):
        network = graphs.cycle_graph(10)
        line = self._line_graph(network)
        phase = KuhnDefectiveEdgeColoringPhase(p_prime=2, degree_bound=2)
        result = Scheduler(line).run(phase)
        assert result.metrics.rounds == 1

    def test_class_restriction_limits_counted_neighbors(self):
        network = graphs.random_regular(20, 4, seed=9)
        line = self._line_graph(network)
        # Put every edge in its own class: every label rank becomes 0, so all
        # edges get color (1, 1) -> 1, and the defect bound is vacuous because
        # no two incident edges share a class.
        states = {edge: {"cls": index} for index, edge in enumerate(line.nodes())}
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=3, degree_bound=4, output_key="edge_color", class_key="cls"
        )
        result = Scheduler(line).run(phase, initial_states=states)
        assert set(result.extract("edge_color").values()) == {1}

    def test_requires_line_graph_node_ids(self, triangle):
        phase = KuhnDefectiveEdgeColoringPhase(p_prime=2, degree_bound=2)
        with pytest.raises(InvalidParameterError):
            Scheduler(triangle).run(phase)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            KuhnDefectiveEdgeColoringPhase(p_prime=0, degree_bound=3)
        with pytest.raises(InvalidParameterError):
            KuhnDefectiveEdgeColoringPhase(p_prime=2, degree_bound=0)


class TestDefectiveEdgeColoringKernel:
    """The Corollary 5.4 numpy kernel against the per-node callbacks."""

    def _compare(self, line, phase, initial_states=None):
        from repro.local_model import VectorizedScheduler

        reference = Scheduler(line).run(phase, initial_states=initial_states)
        for config in ARRAY_CONFIGS:
            with engine_config(config):
                candidate = VectorizedScheduler(line).run(
                    phase, initial_states=initial_states
                )
            assert candidate.states == reference.states
            assert candidate.metrics.summary() == reference.metrics.summary()
        return reference

    @pytest.mark.parametrize("p_prime", [2, 3, 5])
    def test_bit_identical_without_classes(self, p_prime):
        network = graphs.random_regular(30, 6, seed=7)
        line = line_graph_network(network)
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=p_prime, degree_bound=network.max_degree, output_key="edge_color"
        )
        self._compare(line, phase)

    def test_bit_identical_with_class_restriction(self):
        network = graphs.random_regular(20, 4, seed=9)
        line = line_graph_network(network)
        states = {edge: {"cls": index % 3} for index, edge in enumerate(line.nodes())}
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=3, degree_bound=4, output_key="edge_color", class_key="cls"
        )
        self._compare(line, phase, initial_states=states)

    def test_bit_identical_with_tuple_classes(self):
        # Tuple-valued classes (the Legal-Color recursion paths) change the
        # broadcast payload size; metrics must still match exactly.
        network = graphs.random_regular(18, 4, seed=3)
        line = line_graph_network(network)
        states = {
            edge: {"cls": (1, line.unique_id(edge) % 2)} for edge in line.nodes()
        }
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=2, degree_bound=4, output_key="edge_color", class_key="cls"
        )
        self._compare(line, phase, initial_states=states)

    def test_bit_identical_with_non_monotone_unique_ids(self):
        # node_sort_key order of the edge tuples disagrees with pair-key
        # order here; the kernel's sort_rank column must follow the former.
        from repro.local_model import FastNetwork

        base = FastNetwork.from_adjacency(
            {10: [20, 30, 40], 20: [30, 40], 30: [40], 40: []},
            unique_ids={10: 4, 20: 3, 30: 2, 40: 1},
        )
        line = line_graph_network(base)
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=2, degree_bound=3, output_key="edge_color"
        )
        self._compare(line, phase)

    def test_vectorized_requires_line_graph_node_ids(self, triangle):
        from repro.local_model import VectorizedScheduler

        phase = KuhnDefectiveEdgeColoringPhase(p_prime=2, degree_bound=2)
        with pytest.raises(InvalidParameterError):
            VectorizedScheduler(triangle).run(phase)

    def test_kernel_on_the_csr_builder_view(self):
        # The fast-builder view carries the incidence encoding natively; the
        # kernel must agree with the reference run on the same view.
        from repro.local_model import VectorizedScheduler, build_line_graph_fast

        network = graphs.random_regular(26, 8, seed=1)
        fast = build_line_graph_fast(network)
        phase = KuhnDefectiveEdgeColoringPhase(
            p_prime=4, degree_bound=network.max_degree, output_key="edge_color"
        )
        reference = Scheduler(fast).run(phase)
        candidate = VectorizedScheduler(fast).run(phase)
        assert candidate.states == reference.states
        assert candidate.metrics.summary() == reference.metrics.summary()
