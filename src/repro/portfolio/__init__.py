"""Auto-tuning portfolio: one entry point that picks the right configuration.

:func:`color_graph` / :func:`color_edges` select algorithm, execution
engine, Theorem 4.8 quality preset, and edge-coloring route per instance,
run the chosen configuration, and return one normalized
:class:`PortfolioResult` carrying the :class:`PortfolioDecision` taken.  The
route is the one with the smaller planned Legal-Color palette; under a
round ``budget`` the preset comes from the fitted round multipliers of
:class:`CostModel`.  Every decision has a kwarg escape hatch — see
:mod:`repro.portfolio.facade`.
"""

from repro.portfolio.cost_model import QUALITY_ORDER, CostModel
from repro.portfolio.facade import (
    EDGE_ALGORITHMS,
    VERTEX_ALGORITHMS,
    color_edges,
    color_graph,
)
from repro.portfolio.result import PortfolioDecision, PortfolioResult

__all__ = [
    "CostModel",
    "EDGE_ALGORITHMS",
    "PortfolioDecision",
    "PortfolioResult",
    "QUALITY_ORDER",
    "VERTEX_ALGORITHMS",
    "color_edges",
    "color_graph",
]
