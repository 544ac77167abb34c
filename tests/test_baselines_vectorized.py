"""Engine equivalence for the vectorized baseline kernels.

The Luby, Panconesi–Rizzi, and greedy-reduction baselines have fully
array-native execution paths.  These tests lock down that (1) the reference
engine and the vectorized engine, kernels on and off, produce identical
colorings, final states, and metrics, (2) the vectorized engine runs each
baseline with ZERO reference fallbacks on regular and heavy-tailed families
alike, and (3) the normalized result objects carry consistent
`color_column`s.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_configs import ARRAY_CONFIGS, ENGINE_CONFIGS, engine_config

from repro import graphs
from repro.baselines import (
    greedy_reduction_edge_coloring,
    luby_edge_coloring,
    luby_vertex_coloring,
    panconesi_rizzi_edge_coloring,
)
from repro.baselines.luby_random import LubyRandomColoringPhase, luby_draw
from repro.local_model.engine import make_scheduler
from repro.local_model.fast_network import fast_view
from repro.local_model.state_table import StateTable
from repro.verification import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
)

FAMILIES = {
    "regular": lambda: graphs.random_regular(48, 6, seed=11),
    "heavy-tailed-ba": lambda: graphs.barabasi_albert(60, 4, seed=12),
    "heavy-tailed-powerlaw": lambda: graphs.planted_degree_sequence(
        graphs.heavy_tailed_degree_sequence(50, exponent=2.2, seed=13),
        seed=13,
    ),
}


def on_every_config(run):
    """``{config: run(engine)}`` for every engine configuration."""
    results = {}
    for config in ENGINE_CONFIGS:
        with engine_config(config) as engine:
            results[config] = run(engine)
    return results


def run_luby_states(network, engine, palette, seed=0):
    fast = fast_view(network)
    phase = LubyRandomColoringPhase(palette=palette, seed=seed)
    table, metrics = make_scheduler(fast, engine=engine).run_table(
        phase, StateTable(fast.num_nodes)
    )
    return table.to_dicts(), metrics


class TestLubyEngineEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_full_state_and_metrics_identical(self, family):
        network = FAMILIES[family]()
        palette = fast_view(network).max_degree + 1
        runs = on_every_config(lambda engine: run_luby_states(network, engine, palette))
        states, reference = runs["reference"]
        for config in ARRAY_CONFIGS:
            candidate_states, metrics = runs[config]
            assert candidate_states == states, config
            assert metrics.summary() == reference.summary(), config
            assert metrics.fallback_phase_names == []

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_vertex_results_identical_and_legal(self, family):
        network = FAMILIES[family]()
        results = on_every_config(
            lambda engine: luby_vertex_coloring(network, seed=3, engine=engine)
        )
        reference = results["reference"]
        for config in ARRAY_CONFIGS:
            assert_legal_vertex_coloring(network, results[config].colors)
            assert results[config].colors == reference.colors
            assert np.array_equal(results[config].color_column, reference.color_column)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        # Negative and wider-than-64-bit seeds reach the draw's masking.
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        p_percent=st.integers(min_value=5, max_value=40),
    )
    def test_hypothesis_er_equivalence(self, n, seed, p_percent):
        network = graphs.erdos_renyi(n, p_percent / 100.0, seed=abs(seed))
        palette = max(1, fast_view(network).max_degree + 1)
        runs = on_every_config(
            lambda engine: run_luby_states(network, engine, palette, seed=seed)
        )
        states, reference = runs["reference"]
        for config in ARRAY_CONFIGS:
            candidate_states, metrics = runs[config]
            assert candidate_states == states
            assert metrics.rounds == reference.rounds
            assert metrics.messages == reference.messages
            assert metrics.fallback_phase_names == []


class TestLubyDraw:
    """The one draw both engines share: scalar ints and uint64 lanes agree."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        round_index=st.integers(min_value=1, max_value=10**6),
        lanes=st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.one_of(st.just(1), st.integers(min_value=2, max_value=4096)),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_array_lanes_equal_scalar_draws(self, seed, round_index, lanes):
        uids = np.array([uid for uid, _ in lanes], dtype=np.int64)
        limits = np.array([limit for _, limit in lanes], dtype=np.int64)
        batched = luby_draw(seed, uids.astype(np.uint64), round_index, limits.astype(np.uint64))
        assert batched.tolist() == [
            luby_draw(seed, uid, round_index, limit) for uid, limit in lanes
        ]
        assert (batched < limits.astype(np.uint64)).all()

    @pytest.mark.parametrize("limit", [2, 3, 7, 64])
    def test_every_index_is_drawn(self, limit):
        uids = np.arange(2000, dtype=np.uint64)
        draws = luby_draw(5, uids, 1, np.full(len(uids), limit, dtype=np.uint64))
        counts = np.bincount(draws.astype(np.int64), minlength=limit)
        assert len(counts) == limit
        assert counts.min() > 0


class TestLineGraphBaselinesVectorized:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "baseline",
        [panconesi_rizzi_edge_coloring, greedy_reduction_edge_coloring, luby_edge_coloring],
        ids=["pr", "greedy", "luby-edge"],
    )
    def test_engines_agree_with_zero_fallbacks(self, family, baseline):
        network = FAMILIES[family]()
        results = on_every_config(lambda engine: baseline(network, engine=engine))
        reference = results["reference"]
        for config in ARRAY_CONFIGS:
            result = results[config]
            assert_legal_edge_coloring(network, result.edge_colors)
            assert result.edge_colors == reference.edge_colors
            assert result.palette == reference.palette
            assert result.metrics.rounds == reference.metrics.rounds
            assert result.metrics.messages == reference.metrics.messages
            assert result.metrics.fallback_phase_names == []

    def test_color_column_matches_mapping(self):
        network = graphs.random_regular(32, 4, seed=5)
        for baseline in (
            panconesi_rizzi_edge_coloring,
            greedy_reduction_edge_coloring,
            luby_edge_coloring,
        ):
            result = baseline(network, engine="vectorized")
            assert result.color_column is not None
            assert result.color_column.tolist() == list(
                result.edge_colors.values()
            )

    def test_fastnetwork_input_accepted(self):
        network = graphs.random_regular(24, 4, seed=6)
        fast = fast_view(network)
        for baseline in (
            panconesi_rizzi_edge_coloring,
            greedy_reduction_edge_coloring,
            luby_edge_coloring,
        ):
            from_fast = baseline(fast, engine="vectorized")
            from_network = baseline(network, engine="vectorized")
            assert from_fast.edge_colors == from_network.edge_colors

    def test_luby_vertex_delta_from_csr_degrees(self):
        # The default palette must equal Delta + 1 as read off the CSR
        # degree column (no Python pass over the adjacency).
        network = graphs.barabasi_albert(40, 3, seed=7)
        fast = fast_view(network)
        result = luby_vertex_coloring(fast)
        assert result.palette == int(fast.degrees_np.max()) + 1
