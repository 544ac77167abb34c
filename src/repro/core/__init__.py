"""The paper's primary contribution.

* :mod:`repro.core.defective_coloring` -- Procedure **Defective-Color**
  (Algorithm 1): an ``O(Delta/p)``-defective ``p``-coloring of graphs with
  bounded neighborhood independence, the paper's main technical tool.
* :mod:`repro.core.legal_coloring` -- Procedure **Legal-Color** (Algorithm 2)
  and the Theorem 4.5 / 4.6 / 4.8 vertex-coloring results.
* :mod:`repro.core.edge_coloring` -- the Section 5 edge-coloring algorithms
  for general graphs (Theorems 5.3 and 5.5).
* :mod:`repro.core.randomized` -- the Section 6.1 randomized extension.
* :mod:`repro.core.tradeoff` -- the Section 6.2 colors-vs-rounds tradeoff.
* :mod:`repro.core.parameters` -- parameter presets and validation.
"""

from repro.core.defective_coloring import (
    DefectiveColorInfo,
    PsiSelectionPhase,
    defective_color_pipeline,
    run_defective_color,
)
from repro.core.edge_coloring import EdgeColoringResult, color_edges, plan_edge_coloring
from repro.core.legal_coloring import (
    LegalColoringResult,
    LegalColorPlan,
    LevelTrace,
    color_vertices,
    plan_legal_coloring,
    run_legal_coloring,
)
from repro.core.parameters import (
    LegalColorParameters,
    implied_color_exponent,
    params_for_few_rounds,
    params_for_linear_colors,
    params_for_quality,
    params_for_subpolynomial_rounds,
)
from repro.core.randomized import RandomizedColoringResult, randomized_color_vertices
from repro.core.tradeoff import TradeoffColoringResult, tradeoff_color_vertices

__all__ = [
    "DefectiveColorInfo",
    "EdgeColoringResult",
    "LegalColorParameters",
    "LegalColorPlan",
    "LegalColoringResult",
    "LevelTrace",
    "PsiSelectionPhase",
    "RandomizedColoringResult",
    "TradeoffColoringResult",
    "color_edges",
    "color_vertices",
    "defective_color_pipeline",
    "implied_color_exponent",
    "params_for_few_rounds",
    "params_for_linear_colors",
    "params_for_quality",
    "params_for_subpolynomial_rounds",
    "plan_edge_coloring",
    "plan_legal_coloring",
    "randomized_color_vertices",
    "run_defective_color",
    "run_legal_coloring",
    "tradeoff_color_vertices",
]
