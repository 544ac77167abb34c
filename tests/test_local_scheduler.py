"""Unit tests for the synchronous scheduler, phases and metrics."""

from __future__ import annotations

import pytest

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.local_model import (
    FastNetwork,
    PhasePipeline,
    RunMetrics,
    Scheduler,
    SynchronousPhase,
)
from repro.local_model.algorithm import LocalComputationPhase
from repro.local_model.messages import payload_size_words
from repro.local_model.metrics import PhaseMetrics


class EchoDegreePhase(SynchronousPhase):
    """Each node learns its degree by counting one round of messages."""

    name = "echo-degree"

    def send(self, view, state, round_index):
        return {neighbor: "ping" for neighbor in view.neighbors}

    def receive(self, view, state, inbox, round_index):
        state["observed_degree"] = len(inbox)
        return True


class GossipMaxIdPhase(SynchronousPhase):
    """Flood the maximum unique id for a fixed number of rounds."""

    name = "gossip-max"

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def initialize(self, view, state):
        state["best"] = view.unique_id

    def send(self, view, state, round_index):
        return {neighbor: state["best"] for neighbor in view.neighbors}

    def receive(self, view, state, inbox, round_index):
        for value in inbox.values():
            state["best"] = max(state["best"], value)
        return round_index >= self.rounds

    def max_rounds(self, n, max_degree):
        return self.rounds + 1


class MisbehavingPhase(SynchronousPhase):
    """Sends a message to a vertex that is not a neighbor."""

    name = "misbehaving"

    def send(self, view, state, round_index):
        return {"not-a-neighbor": 1}

    def receive(self, view, state, inbox, round_index):
        return True


class NeverHaltingPhase(SynchronousPhase):
    name = "never-halting"

    def send(self, view, state, round_index):
        return {}

    def receive(self, view, state, inbox, round_index):
        return False

    def max_rounds(self, n, max_degree):
        return 5


class DoubleStatePhase(LocalComputationPhase):
    name = "double"

    def compute(self, view, state):
        state["value"] = 2 * state.get("value", 1)


class TestPayloadAccounting:
    def test_scalars_cost_one_word(self):
        assert payload_size_words(7) == 1
        assert payload_size_words("color") == 1
        assert payload_size_words(None) == 1
        assert payload_size_words(3.5) == 1

    def test_containers_sum_their_elements(self):
        assert payload_size_words([1, 2, 3]) == 3
        assert payload_size_words((1, (2, 3))) == 3
        assert payload_size_words({"phi": 4, "psi": 5}) == 4
        assert payload_size_words({}) == 1


class TestScheduler:
    def test_single_phase_runs_and_extracts(self, small_regular):
        result = Scheduler(small_regular).run(EchoDegreePhase())
        degrees = result.extract("observed_degree")
        for node, degree in zip(small_regular.nodes(), small_regular.degrees_np.tolist()):
            assert degrees[node] == degree
        assert result.metrics.rounds == 1

    def test_fast_network_runs_like_the_equal_network(self, path10):
        pipeline = PhasePipeline([EchoDegreePhase(), GossipMaxIdPhase(rounds=4)])
        on_fast = Scheduler(path10).run(pipeline)
        hand_built = FastNetwork.from_adjacency({i: [i + 1] for i in range(9)})
        on_network = Scheduler(hand_built).run(pipeline)
        assert on_fast.states == on_network.states
        assert on_fast.metrics.summary() == on_network.metrics.summary()

    def test_messages_counted_per_round(self, triangle):
        result = Scheduler(triangle).run(EchoDegreePhase())
        # Every vertex sends to both neighbors exactly once.
        assert result.metrics.messages == 6
        assert result.metrics.max_message_words == 1

    def test_gossip_reaches_global_maximum_within_diameter(self, path10):
        phase = GossipMaxIdPhase(rounds=path10.num_nodes)
        result = Scheduler(path10).run(phase)
        maxima = set(result.extract("best").values())
        assert maxima == {path10.num_nodes}

    def test_gossip_partial_after_few_rounds(self, path10):
        phase = GossipMaxIdPhase(rounds=2)
        result = Scheduler(path10).run(phase)
        assert len(set(result.extract("best").values())) > 1

    def test_pipeline_accumulates_rounds(self, triangle):
        pipeline = PhasePipeline([EchoDegreePhase(), GossipMaxIdPhase(rounds=3)])
        result = Scheduler(triangle).run(pipeline)
        assert result.metrics.rounds == 1 + 3
        assert len(result.metrics.phases) == 2

    def test_initial_states_are_seeded(self, triangle):
        result = Scheduler(triangle).run(
            DoubleStatePhase(), initial_states={node: {"value": 5} for node in triangle.nodes()}
        )
        assert set(result.extract("value").values()) == {10}

    def test_local_computation_phase_costs_zero_rounds(self, triangle):
        result = Scheduler(triangle).run(DoubleStatePhase())
        assert result.metrics.rounds == 0
        assert result.metrics.messages == 0

    def test_message_to_non_neighbor_rejected(self, triangle):
        with pytest.raises(SimulationError):
            Scheduler(triangle).run(MisbehavingPhase())

    def test_round_limit_enforced(self, triangle):
        with pytest.raises(RoundLimitExceeded):
            Scheduler(triangle).run(NeverHaltingPhase())

    def test_globals_exposed_to_views(self, small_regular):
        class InspectGlobals(LocalComputationPhase):
            name = "inspect"

            def compute(self, view, state):
                state["n"] = view.globals["n"]
                state["max_degree"] = view.globals["max_degree"]
                state["keys"] = sorted(view.globals)

        result = Scheduler(small_regular).run(InspectGlobals())
        some_state = next(iter(result.states.values()))
        assert some_state["n"] == small_regular.num_nodes
        assert some_state["max_degree"] == small_regular.max_degree
        assert some_state["keys"] == ["max_degree", "n"]

    def test_empty_network_runs_without_rounds(self):
        empty = FastNetwork.from_adjacency({})
        result = Scheduler(empty).run(EchoDegreePhase())
        assert result.states == {}
        assert result.metrics.rounds == 0


class TestRunMetrics:
    def test_add_phase_aggregates(self):
        metrics = RunMetrics()
        metrics.add_phase(
            PhaseMetrics(name="a", rounds=3, messages=10, total_words=20, max_message_words=4)
        )
        metrics.add_phase(
            PhaseMetrics(name="b", rounds=2, messages=5, total_words=5, max_message_words=1)
        )
        assert metrics.rounds == 5
        assert metrics.messages == 15
        assert metrics.total_words == 25
        assert metrics.max_message_words == 4

    def test_merge_preserves_phase_breakdown(self):
        first = RunMetrics()
        first.add_phase(PhaseMetrics(name="a", rounds=1))
        second = RunMetrics()
        second.add_phase(PhaseMetrics(name="b", rounds=2))
        first.merge(second)
        assert [phase.name for phase in first.phases] == ["a", "b"]
        assert first.rounds == 3

    def test_merge_accumulates_phase_seconds(self):
        first = RunMetrics()
        first.add_phase_seconds("a", 1.0)
        second = RunMetrics()
        second.add_phase(PhaseMetrics(name="a", rounds=2, messages=3, total_words=6))
        second.add_phase_seconds("a", 0.5)
        second.add_phase_seconds("b", 2.0)
        first.merge(second)
        assert first.phase_seconds == {"a": 1.5, "b": 2.0}
        assert first.summary() == (2, 3, 6, 0)

    def test_record_message_tracks_maximum(self):
        phase = PhaseMetrics(name="x")
        phase.record_message(2)
        phase.record_message(7)
        phase.record_message(1)
        assert phase.messages == 3
        assert phase.total_words == 10
        assert phase.max_message_words == 7

    def test_summary_tuple(self):
        metrics = RunMetrics()
        metrics.add_phase(
            PhaseMetrics(name="a", rounds=1, messages=2, total_words=3, max_message_words=4)
        )
        assert metrics.summary() == (1, 2, 3, 4)
