"""Reproduction of *Distributed Deterministic Edge Coloring using Bounded
Neighborhood Independence* (Barenboim & Elkin, PODC 2011).

The package is organized around a synchronous message-passing simulator
(:mod:`repro.local_model`), graph workloads (:mod:`repro.graphs`), the
classical primitives the paper builds on (:mod:`repro.primitives`), the
paper's algorithms (:mod:`repro.core`), the baselines it compares against
(:mod:`repro.baselines`), and verification / analysis utilities
(:mod:`repro.verification`, :mod:`repro.analysis`).

Quickstart::

    from repro import color_edges, graphs, verification

    network = graphs.random_regular(n=64, degree=8, seed=1)
    result = color_edges(network, quality="superlinear")
    verification.assert_legal_edge_coloring(network, result.edge_colors)
    print(result.colors_used, "colors in", result.metrics.rounds, "rounds")

``color_edges`` / ``color_graph`` at the package root are the auto-tuning
portfolio façade (:mod:`repro.portfolio`): they pick algorithm, engine,
quality preset, and route per instance (the route with the smaller planned
palette), and every choice has an override kwarg.  The preset-explicit core entry points
stay available as :func:`repro.core.color_edges` /
:func:`repro.core.color_vertices`.
"""

from repro import (
    analysis,
    baselines,
    core,
    dynamic,
    experiments,
    graphs,
    local_model,
    portfolio,
    primitives,
    verification,
)
from repro.core import (
    EdgeColoringResult,
    LegalColoringResult,
    color_vertices,
    randomized_color_vertices,
    run_defective_color,
    run_legal_coloring,
    tradeoff_color_vertices,
)
from repro.portfolio import (
    CostModel,
    PortfolioDecision,
    PortfolioResult,
    color_edges,
    color_graph,
)
from repro.dynamic import DynamicColoring, UpdateReport
from repro.exceptions import (
    ColoringError,
    GraphPropertyError,
    HypergraphError,
    InvalidParameterError,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
)
from repro.local_model import (
    FastNetwork,
    RunMetrics,
    Scheduler,
    VectorizedScheduler,
    available_engines,
    make_scheduler,
    set_default_engine,
    use_engine,
)

__version__ = "1.8.0"

__all__ = [
    "ColoringError",
    "CostModel",
    "DynamicColoring",
    "EdgeColoringResult",
    "FastNetwork",
    "GraphPropertyError",
    "HypergraphError",
    "InvalidParameterError",
    "LegalColoringResult",
    "PortfolioDecision",
    "PortfolioResult",
    "ReproError",
    "RoundLimitExceeded",
    "RunMetrics",
    "Scheduler",
    "SimulationError",
    "UpdateReport",
    "VectorizedScheduler",
    "__version__",
    "analysis",
    "available_engines",
    "baselines",
    "color_edges",
    "color_graph",
    "color_vertices",
    "core",
    "dynamic",
    "experiments",
    "graphs",
    "local_model",
    "make_scheduler",
    "portfolio",
    "primitives",
    "randomized_color_vertices",
    "run_defective_color",
    "run_legal_coloring",
    "set_default_engine",
    "tradeoff_color_vertices",
    "use_engine",
    "verification",
]
