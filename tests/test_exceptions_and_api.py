"""Tests for the exception hierarchy and the top-level public API surface."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    ColoringError,
    GraphPropertyError,
    HypergraphError,
    InvalidParameterError,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
)


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (
            ColoringError,
            GraphPropertyError,
            HypergraphError,
            InvalidParameterError,
            RoundLimitExceeded,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)

    def test_value_error_compatibility(self):
        # Parameter and graph errors double as ValueError so generic callers
        # can catch them idiomatically.
        assert issubclass(InvalidParameterError, ValueError)
        assert issubclass(GraphPropertyError, ValueError)
        assert issubclass(HypergraphError, ValueError)

    def test_runtime_error_compatibility(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(RoundLimitExceeded, SimulationError)

    def test_catching_base_class_catches_specific(self):
        with pytest.raises(ReproError):
            raise RoundLimitExceeded("phase ran too long")


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__ == "1.8.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_main_entry_points_exposed(self):
        assert callable(repro.color_edges)
        assert callable(repro.color_graph)
        assert callable(repro.color_vertices)
        assert callable(repro.run_defective_color)
        assert callable(repro.run_legal_coloring)
        assert callable(repro.randomized_color_vertices)
        assert callable(repro.tradeoff_color_vertices)

    def test_subpackages_exposed(self):
        for module_name in (
            "graphs",
            "core",
            "local_model",
            "portfolio",
            "primitives",
            "baselines",
            "verification",
            "analysis",
        ):
            assert hasattr(repro, module_name)

    def test_quickstart_snippet_from_docstring(self):
        # The README / package-docstring quickstart must keep working.
        network = repro.graphs.random_regular(20, 4, seed=1)
        result = repro.color_edges(network, quality="superlinear")
        repro.verification.assert_legal_edge_coloring(network, result.edge_colors)
        assert result.colors_used >= network.max_degree

    def test_root_color_edges_is_the_portfolio_facade(self):
        # The package root dispatches through the portfolio; the
        # preset-explicit core entry points stay where they were.
        assert repro.color_edges is repro.portfolio.color_edges
        assert repro.core.color_edges is not repro.color_edges
        network = repro.graphs.random_regular(16, 4, seed=3)
        result = repro.color_edges(network)
        assert isinstance(result, repro.PortfolioResult)
        assert isinstance(result.decision, repro.PortfolioDecision)
        assert result.decision.algorithm == "legal-color"
        # Duck compatibility with EdgeColoringResult consumers.
        assert result.edge_colors == result.colors
        assert result.route == result.decision.route
        assert result.color_column is not None

    def test_portfolio_override_escape_hatches(self):
        network = repro.graphs.random_regular(16, 4, seed=3)
        result = repro.color_edges(
            network, algorithm="panconesi-rizzi", engine="vectorized"
        )
        assert result.decision.overrides == ("algorithm", "engine")
        assert result.decision.engine == "vectorized"
        assert result.raw.route == "baseline-pr"
        with pytest.raises(InvalidParameterError):
            repro.color_edges(network, algorithm="luby", route="direct")
        with pytest.raises(InvalidParameterError):
            repro.color_graph(network, algorithm="legal-color")  # needs c

    def test_normalized_baseline_returns(self):
        # The four baselines share the core result dataclasses since 1.5.
        network = repro.graphs.random_regular(16, 4, seed=3)
        vertex = repro.baselines.luby_vertex_coloring(network, seed=1)
        assert isinstance(vertex, repro.LegalColoringResult)
        assert vertex.color_column is not None
        for fn in (
            repro.baselines.luby_edge_coloring,
            repro.baselines.panconesi_rizzi_edge_coloring,
            repro.baselines.greedy_reduction_edge_coloring,
        ):
            result = fn(network)
            assert isinstance(result, repro.EdgeColoringResult)
            assert result.color_column is not None

