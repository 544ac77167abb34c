"""Decision pinning for the `color_graph` / `color_edges` portfolio façade.

The façade takes the edge-coloring route whose Legal-Color plan gives the
smaller palette (ties to the direct route), picks the quality preset under a
round budget from fitted round multipliers, and runs on the default
engine (``"vectorized"``).  These tests check that the plan's palette is the palette every run
reports, pin the route and budget decisions on the benchmarked instance
classes, and check that every decision is carried on the result object with
its reason and predicted numbers.
"""

from __future__ import annotations

import builtins
import functools
import math

import pytest

import repro
from repro import graphs
from repro.core import color_edges as core_color_edges
from repro.core import plan_edge_coloring
from repro.core.edge_coloring import line_graph_max_degree
from repro.exceptions import InvalidParameterError
from repro.portfolio import (
    EDGE_ALGORITHMS,
    QUALITY_ORDER,
    VERTEX_ALGORITHMS,
    CostModel,
    color_edges,
    color_graph,
)
from repro.portfolio.cost_model import ROUND_MULTIPLIERS, quality_round_shape
from repro.local_model import kernels
from repro.local_model.engine import DEFAULT_ENGINE
from repro.local_model.line_csr import build_line_graph_fast
from repro.verification import (
    assert_legal_edge_coloring,
    assert_legal_vertex_coloring,
)

#: Graphs the plan is checked on: regular, bounded-growth, geometric and
#: heavy-tailed degree sequences.
PLAN_GRAPHS = {
    "regular500x6": lambda: graphs.random_regular(500, 6, seed=1),
    "regular1000x16": lambda: graphs.random_regular(1000, 16, seed=1),
    "grid5x5": lambda: graphs.grid_graph(5, 5),
    "geometric400": lambda: graphs.random_geometric(400, 0.1, seed=1),
    "barabasi300x3": lambda: graphs.barabasi_albert(300, 3, seed=1),
}


@functools.lru_cache(maxsize=None)
def _plan_graph(name):
    return PLAN_GRAPHS[name]()


class TestLegalColorPlan:
    @pytest.mark.parametrize("route", ["direct", "simulation"])
    @pytest.mark.parametrize("quality", ["linear", "subpolynomial", "superlinear"])
    @pytest.mark.parametrize("name", sorted(PLAN_GRAPHS))
    def test_planned_palette_is_the_measured_palette(self, name, quality, route):
        network = _plan_graph(name)
        plan = plan_edge_coloring(network, quality, route=route)
        result = core_color_edges(network, quality=quality, route=route)
        assert plan.palette == result.palette
        assert list(plan.degree_bounds[:-1]) == [lv.degree_bound for lv in result.levels]
        assert list(plan.degree_bounds[1:]) == [
            lv.next_degree_bound for lv in result.levels
        ]
        assert plan.params == result.parameters

    def test_line_graph_max_degree_is_exact_on_irregular_graphs(self):
        # 2 Delta - 2 assumes the two largest degrees are adjacent; on a
        # heavy-tailed graph they need not be.
        network = graphs.barabasi_albert(800, 8, seed=1)
        exact = line_graph_max_degree(network)
        assert exact == build_line_graph_fast(network).max_degree
        assert exact < 2 * network.max_degree - 2
        assert line_graph_max_degree(graphs.complete_graph(1)) == 0


class TestRouteRule:
    """The route with the smaller planned palette; ties go to ``direct``."""

    @pytest.mark.parametrize(
        "make, route, direct, simulation",
        [
            # At Delta(L) = 10 and 30 the Corollary 5.4 bound would not
            # shrink, so the direct route plans no level: 2 Delta - 1 colors.
            (lambda: graphs.random_regular(500, 6, seed=1), "direct", 11, 42),
            (lambda: graphs.random_regular(1000, 16, seed=1), "direct", 31, 324),
            (lambda: graphs.random_regular(32, 4, seed=1), "direct", 7, 7),
            # The Corollary 5.4 defect shrinks the degree bound of a hub-heavy
            # line graph by only about a fifth per level, so the direct
            # palette explodes (n = 800 is the smallest n of this family
            # found to show it).
            (
                lambda: graphs.barabasi_albert(800, 8, seed=1),
                "simulation",
                95_738_112,
                1_908,
            ),
        ],
        ids=["regular-delta6", "regular-delta16", "regular-delta4-tie", "barabasi-albert"],
    )
    def test_route_pins(self, make, route, direct, simulation):
        network = make()
        result = color_edges(network)
        decision = result.decision
        assert decision.route == route
        assert decision.predicted["palette_direct"] == direct
        assert decision.predicted["palette_simulation"] == simulation
        assert decision.reasons["route"] == (
            f"planned palette {direct} direct vs {simulation} simulation"
        )
        assert result.palette == decision.predicted["palette_" + route]
        assert_legal_edge_coloring(network, result.color_column)

    def test_pinned_route_still_quotes_both_palettes(self):
        # The rule picks the direct route here (11 < 42); the pin overrides it.
        network = graphs.random_regular(500, 6, seed=1)
        decision = color_edges(network, route="simulation").decision
        assert decision.route == "simulation"
        assert decision.reasons["route"] == "route pinned by caller"
        assert decision.predicted["palette_direct"] == 11
        assert decision.predicted["palette_simulation"] == 42


class TestBudgetSearch:
    def test_default_reads_no_file(self, monkeypatch):
        def no_files(*args, **kwargs):
            raise AssertionError("CostModel.default() opened a file")

        monkeypatch.setattr(builtins, "open", no_files)
        model = CostModel.default()
        assert model.predict_rounds("linear", 92, 48) == pytest.approx(
            ROUND_MULTIPLIERS["linear"] * quality_round_shape("linear", 92, 48)
        )
        assert ROUND_MULTIPLIERS == {
            "linear": 15.238,
            "subpolynomial": 6.877,
            "superlinear": 13.515,
        }

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
        network = graphs.random_regular(32, 4, seed=1)
        result = color_edges(network)
        decision = result.decision
        assert (decision.algorithm, decision.engine) == ("legal-color", DEFAULT_ENGINE)
        assert decision.quality == "linear"
        # Both routes plan 7 colors; the tie goes to the direct route.
        assert decision.route == "direct"
        assert decision.is_default()
        assert decision.overrides == ()
        assert_legal_edge_coloring(network, result.colors)

    def test_large_instance_runs_the_default_engine(self):
        network = graphs.random_regular(2048, 8, seed=2)
        result = color_graph(network, seed=1)
        decision = result.decision
        assert decision.algorithm == "luby"
        assert decision.engine == DEFAULT_ENGINE
        assert decision.is_default()
        assert "default engine" in decision.reasons["engine"]
        assert not any(key.startswith("engine") for key in decision.predicted)
        assert decision.kernel_backend == kernels.backend_name()
        assert decision.kernel_threads >= 1
        assert_legal_vertex_coloring(network, result.colors)

    @pytest.mark.parametrize("n", [24, 48])
    def test_dense_instance_with_budget_degrades_quality(self, n):
        network = graphs.complete_graph(n)
        result = color_edges(network, budget=40.0)
        decision = result.decision
        assert decision.engine == DEFAULT_ENGINE
        assert decision.quality == "superlinear"
        assert not decision.is_default()
        assert "infeasible" in decision.reasons["quality"]
        assert_legal_edge_coloring(network, result.colors)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_engine_override_is_honoured_at_every_size(self, engine):
        for network in (
            graphs.random_regular(16, 4, seed=3),
            graphs.random_regular(512, 8, seed=2),
        ):
            decision = color_graph(network, seed=1, engine=engine).decision
            assert decision.engine == engine
            assert decision.overrides == ("engine",)
            assert decision.reasons["engine"] == "engine pinned by caller"
            assert decision.is_default() == (engine == DEFAULT_ENGINE)

    def test_backend_absent_still_runs_vectorized(self, monkeypatch):
        # With no resolvable kernel backend the default is still the
        # vectorized engine (numpy only), and the decision record says why.
        from repro.local_model import kernels

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "none")
        kernels.reset()
        try:
            network = graphs.random_regular(2048, 8, seed=2)
            result = color_graph(network, seed=1)
            decision = result.decision
            assert decision.engine == "vectorized"
            assert decision.kernel_backend is None
            assert "no kernel backend" in decision.reasons["engine"]
        finally:
            monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
            kernels.reset()


class TestFacadeContract:
    def test_algorithm_lists_exposed(self):
        assert "legal-color" in VERTEX_ALGORITHMS
        assert set(EDGE_ALGORITHMS) >= {"legal-color", "panconesi-rizzi", "luby"}

    def test_every_decision_has_an_override(self):
        network = graphs.random_regular(16, 4, seed=3)
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

    def test_normalized_result_shape(self):
        network = graphs.random_regular(16, 4, seed=3)
        for result in (
            color_graph(network, seed=1),
            color_edges(network, algorithm="greedy-reduction"),
        ):
            assert isinstance(result, repro.PortfolioResult)
            assert result.color_column is not None
            assert len(result.colors) == len(result.color_column)
            assert result.palette >= 1
            assert result.metrics.rounds >= 1

    def test_invalid_knobs_raise(self):
        network = graphs.random_regular(16, 4, seed=3)
        with pytest.raises(InvalidParameterError):
            color_edges(network, algorithm="nope")
        with pytest.raises(InvalidParameterError):
            color_edges(network, algorithm="greedy-reduction", quality="linear")
        with pytest.raises(InvalidParameterError):
            color_graph(network, quality="linear")  # luby has no presets
        # A budget only steers Legal-Color's presets, and must be a positive
        # number of rounds.
        with pytest.raises(InvalidParameterError):
            color_graph(network, budget=40)  # runs luby
        with pytest.raises(InvalidParameterError):
            color_edges(network, algorithm="luby", budget=40)
        for budget in (math.nan, 0, -5.0):
            with pytest.raises(InvalidParameterError):
                color_edges(network, budget=budget)
            with pytest.raises(InvalidParameterError):
                color_graph(network, c=2, budget=budget)
