"""Tests for the columnar node-state store (:mod:`repro.local_model.state_table`).

The table's whole value rests on one contract: the dict view it materializes
is *exactly* (``==``) the per-node state the engines would have produced with
plain dictionaries.  A table holds one kind of full column, int64 ints;
the hypothesis property drives the round-trip over it, the rejection test
pins every other seed to the reference scheduler's ``run``, and the ``run_table`` tests pin the columnar execution path of
every engine to the dict-based ``run``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_configs import ARRAY_CONFIGS, ENGINE_CONFIGS, engine_config

from repro.exceptions import InvalidParameterError, SimulationError
from repro.local_model import (
    Scheduler,
    StateTable,
    VectorizedScheduler,
    fast_view,
    make_scheduler,
)
from repro.local_model.algorithm import LocalComputationPhase
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.kuhn_defective import defective_coloring_pipeline

# --------------------------------------------------------------------------- #
# Strategies: the value shapes a state table holds
# --------------------------------------------------------------------------- #

_int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def _state_dicts(draw):
    """Rows that all hold the same keys, each holding an int64 int."""
    num_rows = draw(st.integers(0, 8))
    keys = draw(st.lists(st.sampled_from(["a", "b", "_path", "c"]), unique=True))
    return [{key: draw(_int64s) for key in keys} for _ in range(num_rows)]


#: ``node index -> seed`` for each state a table rejects and the reference
#: ``run`` carries through.
UNSUPPORTED_SEEDS = {
    "partial": lambda i: {"x": 1} if i == 0 else {},
    "bool": lambda i: {"x": i % 2 == 0},
    "int-past-int64": lambda i: {"x": 2**70 + i},
    "list": lambda i: {"x": [i]},
    "tuple": lambda i: {"x": (i,)},
    "unhashable-tuple": lambda i: {"x": (i, [i])},
}


class TestRoundTrip:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dicts=_state_dicts())
    def test_from_dicts_to_dicts_is_identity(self, dicts):
        assert StateTable.from_dicts(dicts).to_dicts() == dicts

    def test_mapping_round_trip_ignores_unknown_nodes(self):
        order = ("a", "b", "c")
        states = {"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "zz": {"v": 9}}
        table = StateTable.from_mapping(states, order)
        assert table.to_mapping(order) == {"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}}


@pytest.mark.parametrize("case", sorted(UNSUPPORTED_SEEDS))
def test_table_rejects_seeds_only_the_reference_run_takes(small_regular, case):
    fast = fast_view(small_regular)
    seeds = {node: UNSUPPORTED_SEEDS[case](i) for i, node in enumerate(fast.order)}
    pipeline, _ = delta_plus_one_pipeline(
        n=fast.num_nodes, degree_bound=fast.max_degree, output_key="c"
    )
    message = r"state key 'x' .*engine='reference'"
    with pytest.raises(InvalidParameterError, match=message):
        StateTable.from_dicts([seeds[node] for node in fast.order])
    for config in ARRAY_CONFIGS:
        with engine_config(config), pytest.raises(InvalidParameterError, match=message):
            VectorizedScheduler(small_regular).run(pipeline, initial_states=seeds)
    # The reference run never builds a table: it carries any seed through.
    states = Scheduler(small_regular).run(pipeline, initial_states=seeds).states
    for node, seed in seeds.items():
        assert "c" in states[node]
        assert states[node].get("x") == seed.get("x")



class _WriteUnsupported(LocalComputationPhase):
    """Writes the ``case`` value of :data:`UNSUPPORTED_SEEDS` on every node."""

    name = "write-unsupported"

    def __init__(self, case, index_of):
        self.make = UNSUPPORTED_SEEDS[case]
        self.index_of = index_of

    def compute(self, view, state):
        state.update(self.make(self.index_of[view.unique_id]))


@pytest.mark.parametrize("case", sorted(UNSUPPORTED_SEEDS))
def test_reference_run_table_rejects_final_states_a_table_cannot_hold(
    small_regular, case
):
    # run() keeps what the phase wrote; run_table() re-absorbs the final
    # states into a table and refuses them, naming the key.
    fast = fast_view(small_regular)
    index_of = {fast.unique_id(node): i for i, node in enumerate(fast.order)}
    phase = _WriteUnsupported(case, index_of)
    scheduler = Scheduler(small_regular)
    states = scheduler.run(phase).states
    for i, node in enumerate(fast.order):
        assert states[node].get("x") == UNSUPPORTED_SEEDS[case](i).get("x")
    message = r"state key 'x' .*engine='reference'"
    with pytest.raises(InvalidParameterError, match=message):
        scheduler.run_table(phase, StateTable(fast.num_nodes))

class TestColumns:
    def test_int_columns(self):
        table = StateTable(4)
        table.set_ints("c", np.array([5, 6, 7, 8]))
        assert table.get_ints("c").tolist() == [5, 6, 7, 8]
        table.fill_int("d", 2)
        assert table.get_ints("d").tolist() == [2, 2, 2, 2]
        # get_ints hands out a copy: kernels may scribble on it freely.
        column = table.get_ints("c")
        column[0] = 99
        assert table.get_ints("c").tolist() == [5, 6, 7, 8]

    def test_get_ints_of_absent_key_raises_key_error(self):
        # The failure a per-node state[key] gather would hit.
        table = StateTable.from_dicts([{"c": 1}])
        with pytest.raises(KeyError):
            table.get_ints("d")

    def test_set_ints_stores_int64(self):
        table = StateTable(3)
        table.set_ints("c", np.array([1, 2, 3], dtype=np.int32))
        table.set_ints("d", [4, 5, 6])
        assert table.get_ints("c").dtype == np.int64
        assert table.to_dicts() == [{"c": 1, "d": 4}, {"c": 2, "d": 5}, {"c": 3, "d": 6}]

    def test_shape_validation(self):
        table = StateTable(3)
        with pytest.raises(InvalidParameterError):
            table.set_ints("c", np.array([1, 2]))


class TestRunTable:
    """``run_table`` == ``run`` on the dict view, for every engine."""

    def _pipeline(self, network):
        pipeline, _ = defective_coloring_pipeline(
            n=network.num_nodes,
            degree_bound=max(1, network.max_degree),
            target_defect=2,
            output_key="d",
        )
        return pipeline

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_matches_dict_run(self, small_regular, config):
        pipeline = self._pipeline(small_regular)
        reference = Scheduler(small_regular).run(pipeline)

        fast = fast_view(small_regular)
        table = StateTable(fast.num_nodes)
        with engine_config(config) as engine:
            scheduler = make_scheduler(small_regular, engine=engine)
            final, metrics = scheduler.run_table(pipeline, table)
        assert final.to_mapping(fast.order) == reference.states
        assert metrics.summary() == reference.metrics.summary()

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_seeded_table_matches_seeded_run(self, small_regular, config):
        fast = fast_view(small_regular)
        pipeline, _ = delta_plus_one_pipeline(
            n=fast.num_nodes,
            degree_bound=max(1, fast.max_degree),
            initial_palette=fast.num_nodes,
            input_key="seeded",
            output_key="c",
        )
        seeds = {node: {"seeded": fast.unique_id(node)} for node in fast.order}
        reference = Scheduler(small_regular).run(pipeline, initial_states=seeds)

        table = StateTable.from_mapping(seeds, fast.order)
        with engine_config(config) as engine:
            scheduler = make_scheduler(small_regular, engine=engine)
            final, metrics = scheduler.run_table(pipeline, table)
        assert final.to_mapping(fast.order) == reference.states
        assert metrics.summary() == reference.metrics.summary()

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_row_count_mismatch_rejected(self, small_regular, config):
        pipeline = self._pipeline(small_regular)
        with engine_config(config) as engine, pytest.raises(SimulationError):
            make_scheduler(small_regular, engine=engine).run_table(pipeline, StateTable(3))

    def test_vectorized_keeps_columns_native(self, small_regular):
        """A fully vectorized pipeline never materializes state dicts."""
        pipeline = self._pipeline(small_regular)
        scheduler = VectorizedScheduler(small_regular)
        final, _ = scheduler.run_table(pipeline, StateTable(small_regular.num_nodes))
        assert final.get_ints("d").dtype == np.int64

    def test_empty_network_run_table(self):
        from repro.local_model import FastNetwork

        network = FastNetwork.from_adjacency({})
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        for config in ENGINE_CONFIGS:
            with engine_config(config) as engine:
                scheduler = make_scheduler(network, engine=engine)
                final, metrics = scheduler.run_table(pipeline, StateTable(0))
            assert final.to_dicts() == []
            assert metrics.rounds == 0
