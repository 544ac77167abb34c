"""Tests for the columnar node-state store (:mod:`repro.local_model.state_table`).

The table's whole value rests on one contract: the dict view it materializes
is *exactly* (``==``) the per-node state the engines would have produced with
plain dictionaries.  The hypothesis property here drives the round-trip with
the full mix of value shapes the engines store -- ints, path tuples, lists,
sets, ``None``, booleans, missing keys -- and the ``run_table`` tests pin the
columnar execution path of every engine to the dict-based ``run``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError, SimulationError
from repro.local_model import (
    BatchedScheduler,
    CompiledScheduler,
    Scheduler,
    StateTable,
    VectorizedScheduler,
    fast_view,
)
from repro.primitives.color_reduction import delta_plus_one_pipeline
from repro.primitives.kuhn_defective import defective_coloring_pipeline

# --------------------------------------------------------------------------- #
# Strategies: the value shapes node states actually hold
# --------------------------------------------------------------------------- #

_scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)

_values = st.one_of(
    _scalars,
    st.tuples(),
    st.tuples(st.integers(0, 50)),
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
    st.lists(st.integers(0, 9), max_size=4),
    st.sets(st.integers(0, 9), max_size=4),
)

_state_dicts = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "_path", "c"]), _values, max_size=4),
    max_size=8,
)


class TestRoundTrip:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dicts=_state_dicts)
    def test_from_dicts_to_dicts_is_identity(self, dicts):
        assert StateTable.from_dicts(dicts).to_dicts() == dicts

    def test_mixed_int_tuple_list_states(self):
        dicts = [
            {"color": 3, "_path": (1, 2), "counts": [0, 1], "seen": {4}},
            {"color": 7, "_path": (1, 2), "counts": [2, 0], "flag": True},
            {"color": 5, "_path": (2,), "counts": [], "maybe": None},
        ]
        table = StateTable.from_dicts(dicts)
        assert table.to_dicts() == dicts
        assert table.kind("color") == "int"
        assert table.kind("_path") == "path"
        assert table.kind("counts") == "object"

    def test_partial_presence_round_trips(self):
        dicts = [{"x": 1}, {}, {"x": 3, "y": (1,)}, {"y": (1,)}]
        table = StateTable.from_dicts(dicts)
        assert table.to_dicts() == dicts
        with pytest.raises(KeyError):
            table.get_ints("x")  # missing on node 1, like state["x"] would be

    def test_mapping_round_trip_ignores_unknown_nodes(self):
        order = ("a", "b", "c")
        states = {"a": {"v": 1}, "c": {"v": 3}, "zz": {"v": 9}}
        table = StateTable.from_mapping(states, order)
        assert table.to_mapping(order) == {"a": {"v": 1}, "b": {}, "c": {"v": 3}}

    def test_bool_values_keep_their_type(self):
        dicts = [{"flag": True}, {"flag": False}]
        restored = StateTable.from_dicts(dicts).to_dicts()
        assert restored == dicts
        assert type(restored[0]["flag"]) is bool


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

    def test_get_ints_rejects_paths(self):
        table = StateTable(2)
        table.fill_path("_path", (1,))
        with pytest.raises(TypeError):
            table.get_ints("_path")

    def test_shape_validation(self):
        table = StateTable(3)
        with pytest.raises(InvalidParameterError):
            table.set_ints("c", np.array([1, 2]))
        with pytest.raises(InvalidParameterError):
            table.set_objects("o", [1, 2])
        table.fill_path("_path", ())
        with pytest.raises(InvalidParameterError):
            table.append_to_paths("_path", np.array([1, 2]))

    def test_copy_column_preserves_kind(self):
        table = StateTable.from_dicts(
            [{"i": 1, "p": (1,), "o": [2]}, {"i": 2, "p": (), "o": [3]}]
        )
        for key in ("i", "p", "o"):
            table.copy_column(key, key + "2")
            assert table.kind(key + "2") == table.kind(key)
        rows = table.to_dicts()
        assert rows[0]["i2"] == 1 and rows[0]["p2"] == (1,) and rows[0]["o2"] == [2]
        # Object copies are by reference, exactly like state[t] = state[s].
        assert rows[0]["o2"] is rows[0]["o"]

    def test_set_values_reclassifies(self):
        table = StateTable(2)
        table.set_values("k", [1, 2])
        assert table.kind("k") == "int"
        table.set_values("k", [(1,), (2,)])
        assert table.kind("k") == "path"
        table.set_values("k", [1, (2,)])
        assert table.kind("k") == "object"
        assert table.to_dicts() == [{"k": 1}, {"k": (2,)}]


class TestPathColumns:
    def test_fill_and_append(self):
        table = StateTable(5)
        table.fill_path("_path", ())
        assert table.num_paths("_path") == 1
        table.append_to_paths("_path", np.array([1, 2, 1, 2, 3]))
        assert table.num_paths("_path") == 3
        table.append_to_paths("_path", np.array([1, 1, 2, 1, 1]))
        expected = [(1, 1), (2, 1), (1, 2), (2, 1), (3, 1)]
        assert [row["_path"] for row in table.to_dicts()] == expected
        assert table.num_paths("_path") == 4

    def test_path_ids_equal_iff_paths_equal(self):
        table = StateTable.from_dicts(
            [{"_path": (1, 2)}, {"_path": (2, 1)}, {"_path": (1, 2)}]
        )
        ids = table.path_ids("_path")
        assert ids[0] == ids[2] and ids[0] != ids[1]

    def test_append_interns_per_distinct_pair(self):
        table = StateTable(1000)
        table.fill_path("_path", ())
        table.append_to_paths("_path", np.arange(1000) % 7 + 1)
        assert table.num_paths("_path") == 7

    def test_empty_table_paths(self):
        table = StateTable(0)
        table.fill_path("_path", ())
        table.append_to_paths("_path", np.zeros(0, dtype=np.int64))
        assert table.num_paths("_path") == 0
        assert table.to_dicts() == []

    def test_path_interned_indexes_the_ids(self):
        table = StateTable.from_dicts(
            [{"_path": (1, 2)}, {"_path": (2, 1)}, {"_path": (1, 2)}]
        )
        interned = table.path_interned("_path")
        ids = table.path_ids("_path")
        assert [interned[i] for i in ids.tolist()] == [(1, 2), (2, 1), (1, 2)]
        with pytest.raises(TypeError):
            StateTable.from_dicts([{"x": 1}]).path_interned("x")


class TestGetValuesOrNone:
    def test_mirrors_state_get(self):
        dicts = [{"a": 1, "b": (1, 2)}, {"b": (1, 2)}, {"a": 3, "c": [7]}]
        table = StateTable.from_dicts(dicts)
        for key in ("a", "b", "c", "missing"):
            assert table.get_values_or_none(key) == [d.get(key) for d in dicts]


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

    @pytest.mark.parametrize(
        "engine_cls", [Scheduler, BatchedScheduler, VectorizedScheduler, CompiledScheduler]
    )
    def test_matches_dict_run(self, small_regular, engine_cls):
        pipeline = self._pipeline(small_regular)
        reference = Scheduler(small_regular).run(pipeline)

        fast = fast_view(small_regular)
        table = StateTable(fast.num_nodes)
        final, metrics = engine_cls(small_regular).run_table(pipeline, table)
        assert final.to_mapping(fast.order) == reference.states
        assert metrics.summary() == reference.metrics.summary()

    @pytest.mark.parametrize(
        "engine_cls", [Scheduler, BatchedScheduler, VectorizedScheduler, CompiledScheduler]
    )
    def test_seeded_table_matches_seeded_run(self, small_regular, engine_cls):
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
        final, metrics = engine_cls(small_regular).run_table(pipeline, table)
        assert final.to_mapping(fast.order) == reference.states
        assert metrics.summary() == reference.metrics.summary()

    @pytest.mark.parametrize(
        "engine_cls", [Scheduler, BatchedScheduler, VectorizedScheduler, CompiledScheduler]
    )
    def test_row_count_mismatch_rejected(self, small_regular, engine_cls):
        pipeline = self._pipeline(small_regular)
        with pytest.raises(SimulationError):
            engine_cls(small_regular).run_table(pipeline, StateTable(3))

    def test_vectorized_keeps_columns_native(self, small_regular):
        """A fully vectorized pipeline never materializes state dicts."""
        pipeline = self._pipeline(small_regular)
        scheduler = VectorizedScheduler(small_regular)
        final, _ = scheduler.run_table(pipeline, StateTable(small_regular.num_nodes))
        assert scheduler.fallback_phases == 0
        assert final.kind("d") == "int"

    def test_empty_network_run_table(self):
        from repro.local_model import Network

        network = Network({})
        pipeline, _ = delta_plus_one_pipeline(n=1, degree_bound=1, output_key="c")
        for engine_cls in (
            Scheduler,
            BatchedScheduler,
            VectorizedScheduler,
            CompiledScheduler,
        ):
            final, metrics = engine_cls(network).run_table(pipeline, StateTable(0))
            assert final.to_dicts() == []
            assert metrics.rounds == 0
