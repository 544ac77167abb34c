"""Decision pinning for the `color_graph` / `color_edges` portfolio façade.

The façade decides (quality preset, route) per instance from the committed
cost model (``benchmarks/results/portfolio_model.json``) and runs on the
process default engine.  These tests pin the decisions on the three
benchmarked instance classes — small, large, and dense — so a model
re-record that silently flips a decision fails loudly, and they check that
every decision is carried on the result object with its reason and
predicted costs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro import graphs
from repro.exceptions import InvalidParameterError
from repro.portfolio import (
    EDGE_ALGORITHMS,
    QUALITY_ORDER,
    VERTEX_ALGORITHMS,
    CostModel,
    color_edges,
    color_graph,
)
from repro.portfolio.cost_model import DEFAULT_MODEL, quality_round_shape
from repro.portfolio.facade import _line_csr_entries
from repro.local_model import default_engine, use_engine
from repro.local_model.fast_network import fast_view
from repro.verification import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
)

MODEL_RECORD = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "results"
    / "portfolio_model.json"
)


class TestCommittedModel:
    def test_default_loads_the_committed_record(self):
        assert MODEL_RECORD.exists(), "calibration record missing"
        model = CostModel.default()
        assert model.source == str(MODEL_RECORD)

    def test_embedded_snapshot_matches_committed_record(self):
        # The in-package fallback must stay in sync with the record so an
        # installed package decides identically to a repo checkout.
        with MODEL_RECORD.open() as handle:
            record = json.load(handle)
        for section in ("route", "rounds"):
            assert record[section] == DEFAULT_MODEL[section]
        assert "engine" not in record and "engine" not in DEFAULT_MODEL

    def test_route_choice_follows_committed_coefficients(self):
        # The route cost is linear in line entries, so the choice is
        # whichever measured per-entry coefficient is smaller at every size
        # (ties break to direct: same wall cost, smaller messages).
        model = CostModel.default()
        cheaper = min(
            ("direct", "simulation"),
            key=lambda route: model.route[f"{route}_us_per_line_entry"],
        )
        assert model.choose_route(1_000) == cheaper
        assert model.choose_route(1_000_000) == cheaper
        tied = CostModel.from_mapping(
            {
                "route": {
                    "direct_us_per_line_entry": 0.5,
                    "simulation_us_per_line_entry": 0.5,
                },
                "rounds": {q: dict(DEFAULT_MODEL["rounds"][q]) for q in QUALITY_ORDER},
            },
            source="unit-test",
        )
        assert tied.choose_route(1_000) == "direct"

    def test_quality_budget_walk(self):
        model = CostModel.default()
        assert model.choose_quality(92, 48, None) == "linear"
        assert model.choose_quality(92, 48, 10_000.0) == "linear"
        # Predicted rounds are monotone along QUALITY_ORDER shapes, so a
        # budget between two presets picks the best palette that fits.
        linear = model.predict_rounds("linear", 92, 48)
        subpoly = model.predict_rounds("subpolynomial", 92, 48)
        assert subpoly < linear
        assert model.choose_quality(92, 48, (linear + subpoly) / 2) == "subpolynomial"
        assert model.choose_quality(92, 48, 1.0) == "superlinear"

    def test_round_shapes_monotone_in_delta(self):
        for quality in QUALITY_ORDER:
            assert quality_round_shape(quality, 64, 100) > quality_round_shape(
                quality, 4, 100
            )


class TestDecisionPins:
    """The benchmarked instance classes and the decisions they must get."""

    def test_small_instance_runs_the_default_engine(self):
        network = graphs.random_regular(32, 4, seed=1, backend="fast")
        result = color_edges(network)
        decision = result.decision
        assert (decision.algorithm, decision.engine) == ("legal-color", default_engine())
        assert decision.quality == "linear"
        # The route follows the committed coefficients (the two routes are
        # nearly tied on the reference machine, so the pin is model-relative).
        model = CostModel.default()
        assert decision.route == model.choose_route(_line_csr_entries(fast_view(network)))
        assert decision.is_default() == (decision.route == "direct")
        assert decision.overrides == ()
        assert_legal_edge_coloring(network, result.colors)

    def test_large_instance_runs_the_default_engine(self):
        network = graphs.random_regular(2048, 8, seed=2, backend="fast")
        result = color_graph(network, seed=1)
        decision = result.decision
        assert decision.algorithm == "luby"
        assert decision.engine == default_engine()
        assert decision.is_default()
        assert "process default" in decision.reasons["engine"]
        assert not any(key.startswith("engine") for key in decision.predicted)
        if decision.engine == "compiled":
            assert decision.kernel_backend is not None
            assert decision.kernel_threads >= 1
        assert_legal_vertex_coloring(network, result.colors)

    def test_dense_instance_with_budget_degrades_quality(self):
        network = graphs.complete_graph(24, backend="fast")
        result = color_edges(network, budget=40.0)
        decision = result.decision
        assert decision.engine == default_engine()
        assert decision.quality == "superlinear"
        assert not decision.is_default()
        assert "infeasible" in decision.reasons["quality"]
        assert_legal_edge_coloring(network, result.colors)

    @pytest.mark.parametrize("engine", ["reference", "batched", "vectorized", "compiled"])
    def test_engine_override_is_honoured_at_every_size(self, engine):
        for network in (
            graphs.random_regular(16, 4, seed=3, backend="fast"),
            graphs.random_regular(512, 8, seed=2, backend="fast"),
        ):
            decision = color_graph(network, seed=1, engine=engine).decision
            assert decision.engine == engine
            assert decision.overrides == ("engine",)
            assert decision.reasons["engine"] == "engine pinned by caller"
            assert decision.is_default() == (engine == default_engine())

    def test_is_default_follows_use_engine(self):
        network = graphs.random_regular(16, 4, seed=3, backend="fast")
        with use_engine("vectorized"):
            decision = color_graph(network, seed=1).decision
            assert decision.engine == "vectorized"
            assert decision.is_default()
            pinned = color_graph(network, seed=1, engine="batched").decision
            assert not pinned.is_default()

    def test_decisions_match_committed_benchmark_pins(self):
        # bench_portfolio.py records the decisions it took; the committed
        # model must reproduce the preset choices, and every pin ran on the
        # array engine the recording machine resolved.
        with MODEL_RECORD.open() as handle:
            record = json.load(handle)
        pins = record["decisions"]
        assert len(pins) >= 3
        assert "engine" not in record
        recorded = "compiled" if record["calibration"]["kernel_backend"] else "vectorized"
        assert {pin["engine"] for pin in pins} == {recorded}
        by_instance = {pin["instance"]: pin for pin in pins}
        large = next(pin for name, pin in by_instance.items() if name.startswith("large-"))
        assert large["is_default"]
        dense = by_instance["dense-complete(n=48, Delta=47)"]
        assert dense["quality"] == "superlinear" and not dense["is_default"]

    def test_backend_absent_degrades_to_vectorized(self, monkeypatch):
        # With no resolvable kernel backend the default is the numpy engine,
        # and the decision record says why.
        from repro.local_model import kernels

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        kernels.reset()
        try:
            network = graphs.random_regular(2048, 8, seed=2, backend="fast")
            result = color_graph(network, seed=1)
            decision = result.decision
            assert decision.engine == "vectorized"
            assert decision.kernel_backend is None
            assert "no kernel backend" in decision.reasons["engine"]
        finally:
            monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
            kernels.reset()

    def test_line_entry_count_matches_csr(self):
        network = graphs.random_regular(32, 4, seed=1, backend="fast")
        # |E| = 64, each edge has d(u)+d(v)-2 = 6 line neighbors.
        assert _line_csr_entries(fast_view(network)) == 64 * 6 + 64


class TestFacadeContract:
    def test_algorithm_lists_exposed(self):
        assert "legal-color" in VERTEX_ALGORITHMS
        assert set(EDGE_ALGORITHMS) >= {"legal-color", "panconesi-rizzi", "luby"}

    def test_every_decision_has_an_override(self):
        network = graphs.random_regular(16, 4, seed=3, backend="fast")
        result = color_edges(
            network,
            algorithm="legal-color",
            engine="reference",
            quality="superlinear",
            route="simulation",
        )
        decision = result.decision
        assert decision.overrides == ("algorithm", "engine", "quality", "route")
        assert decision.engine == "reference"
        assert decision.quality == "superlinear"
        assert decision.route == "simulation"
        for knob in ("algorithm", "engine", "quality", "route"):
            assert "pinned by caller" in decision.reasons[knob]

    def test_custom_cost_model_is_honored_and_recorded(self):
        # A model that makes the simulation route free must flip the route;
        # the decision records where the model came from.
        skewed = {
            "route": {"direct_us_per_line_entry": 1.0, "simulation_us_per_line_entry": 0.0},
            "rounds": {q: dict(DEFAULT_MODEL["rounds"][q]) for q in QUALITY_ORDER},
        }
        model = CostModel.from_mapping(skewed, source="unit-test")
        network = graphs.random_regular(16, 4, seed=3, backend="fast")
        result = color_edges(network, cost_model=model)
        assert result.decision.route == "simulation"
        assert result.decision.model_source == "unit-test"

    def test_normalized_result_shape(self):
        network = graphs.random_regular(16, 4, seed=3, backend="fast")
        for result in (
            color_graph(network, seed=1),
            color_edges(network, algorithm="greedy-reduction"),
        ):
            assert isinstance(result, repro.PortfolioResult)
            assert result.color_column is not None
            assert len(result.colors) == len(result.color_column)
            assert result.palette >= 1
            assert result.metrics.rounds >= 1
            assert result.decision.model_source

    def test_invalid_knobs_raise(self):
        network = graphs.random_regular(16, 4, seed=3, backend="fast")
        with pytest.raises(InvalidParameterError):
            color_edges(network, algorithm="nope")
        with pytest.raises(InvalidParameterError):
            color_edges(network, algorithm="greedy-reduction", quality="linear")
        with pytest.raises(InvalidParameterError):
            color_graph(network, quality="linear")  # luby has no presets
