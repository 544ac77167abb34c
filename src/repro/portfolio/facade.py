"""`color_graph` / `color_edges`: the auto-tuning front door of the repo.

Both entry points take a graph (a :class:`FastNetwork`) and pick

* the **algorithm** — the paper's Legal-Color pipeline by default for
  edges (and for vertices when a neighborhood-independence bound ``c`` is
  supplied), the Luby randomized baseline for general vertex coloring;
* the **engine** — ``"vectorized"``
  (:data:`~repro.local_model.engine.DEFAULT_ENGINE`); engines are
  bit-identical, so this is not a cost decision;
* the **quality preset** — the Theorem 4.8 palette/rounds tradeoff point,
  by walking the presets from best palette to fastest until the predicted
  round count (:class:`CostModel`) fits the caller's ``budget``;
* the **route** — direct (Theorem 5.5) versus Lemma 5.2 simulation for
  edge coloring: the one whose Legal-Color plan gives the smaller palette
  for the chosen preset, the direct route (smaller messages) on a tie.

Every decision can be overridden by passing the corresponding kwarg
(``algorithm=``, ``engine=``, ``quality=``, ``route=``); overridden knobs
are passed through untouched and recorded in ``result.decision.overrides``.
The returned :class:`PortfolioResult` is one normalized shape — color
mapping + dense ``color_column`` + palette bound + :class:`RunMetrics` +
the :class:`PortfolioDecision` taken — regardless of which algorithm ran.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.greedy_reduction import greedy_reduction_edge_coloring
from repro.baselines.luby_random import luby_edge_coloring, luby_vertex_coloring
from repro.baselines.panconesi_rizzi import panconesi_rizzi_edge_coloring
from repro.core.edge_coloring import color_edges as core_color_edges
from repro.core.edge_coloring import plan_edge_coloring
from repro.core.legal_coloring import color_vertices as core_color_vertices
from repro.exceptions import InvalidParameterError
from repro.local_model import kernels
from repro.local_model.engine import DEFAULT_ENGINE
from repro.local_model.fast_network import FastNetwork, fast_view
from repro.portfolio.cost_model import CostModel
from repro.portfolio.result import PortfolioDecision, PortfolioResult

VERTEX_ALGORITHMS = ("legal-color", "luby")
EDGE_ALGORITHMS = ("legal-color", "panconesi-rizzi", "greedy-reduction", "luby")


def _check_budget(budget: Optional[float], algorithm: str) -> None:
    """A budget is a positive round count, and only Legal-Color has presets."""
    if budget is None:
        return
    if algorithm != "legal-color":
        raise InvalidParameterError(
            f"budget only applies to algorithm 'legal-color', not {algorithm!r}"
        )
    if not budget > 0:
        raise InvalidParameterError(
            f"budget must be a positive number of rounds, got {budget!r}"
        )


def _portfolio_result(raw, engine: str, colors, **decided) -> PortfolioResult:
    """The result of the run ``raw`` on ``engine``, with the decision taken."""
    decision = PortfolioDecision(
        engine=engine,
        kernel_backend=kernels.backend_name(),
        kernel_threads=kernels.get_num_threads(),
        **decided,
    )
    return PortfolioResult(
        colors=colors,
        palette=raw.palette,
        metrics=raw.metrics,
        decision=decision,
        color_column=raw.color_column,
        raw=raw,
    )


def _decide_engine(override: Optional[str]):
    """The caller's engine, else the default engine, with the reason."""
    if override is not None:
        return override, "engine pinned by caller"
    backend = kernels.backend_name()
    where = (
        f"kernel backend {backend!r}"
        if backend is not None
        else "no kernel backend resolved"
    )
    return DEFAULT_ENGINE, f"default engine ({where})"


def _decide_quality(
    delta: int,
    n: int,
    budget: Optional[float],
    epsilon: float,
    override: Optional[str],
):
    if override is not None:
        return override, "quality pinned by caller", {}
    model = CostModel.default()
    quality = model.choose_quality(delta, n, budget, epsilon=epsilon)
    predicted = {
        "rounds_" + name: model.predict_rounds(name, delta, n, epsilon=epsilon)
        for name in ("linear", "subpolynomial", "superlinear")
    }
    if budget is None:
        reason = "no round budget: best palette guarantee (linear)"
    elif predicted["rounds_" + quality] <= budget:
        reason = (
            f"best palette with predicted rounds "
            f"{predicted['rounds_' + quality]:.1f} <= budget {budget:g}"
        )
    else:
        reason = f"budget {budget:g} infeasible: fastest preset chosen"
    return quality, reason, predicted


def color_graph(
    graph: FastNetwork,
    *,
    c: Optional[int] = None,
    quality: Optional[str] = None,
    budget: Optional[float] = None,
    algorithm: Optional[str] = None,
    engine: Optional[str] = None,
    epsilon: float = 0.75,
    seed: int = 0,
) -> PortfolioResult:
    """Vertex-color ``graph``, choosing algorithm/engine/preset automatically.

    Parameters
    ----------
    graph:
        The graph, a :class:`FastNetwork`.
    c:
        Neighborhood-independence bound, when known.  Supplying it unlocks
        the paper's deterministic Legal-Color pipeline; without it the
        portfolio falls back to the Luby randomized ``Delta + 1`` coloring.
    quality:
        Pin a Theorem 4.8 preset (``"linear"`` / ``"superlinear"`` /
        ``"subpolynomial"``) instead of letting the budget search choose.
        Only meaningful for the Legal-Color algorithm.
    budget:
        Maximum acceptable number of communication rounds (a positive
        number; Legal-Color only).  The portfolio keeps the best palette
        guarantee whose predicted rounds fit.
    algorithm:
        ``"legal-color"`` or ``"luby"`` to bypass the algorithm choice.
    engine:
        Execution engine override (``"reference"`` / ``"vectorized"``).
    epsilon:
        Exponent knob forwarded to the Legal-Color presets.
    seed:
        Random seed for the Luby baseline.
    """
    fast = fast_view(graph)
    overrides = tuple(
        name
        for name, value in (
            ("algorithm", algorithm),
            ("engine", engine),
            ("quality", quality),
        )
        if value is not None
    )

    reasons = {}
    predicted = {}
    if algorithm is None:
        algorithm = "legal-color" if c is not None else "luby"
        reasons["algorithm"] = (
            "independence bound supplied: deterministic Legal-Color"
            if c is not None
            else "no independence bound: Luby randomized Delta+1"
        )
    else:
        reasons["algorithm"] = "algorithm pinned by caller"
    if algorithm not in VERTEX_ALGORITHMS:
        raise InvalidParameterError(
            f"unknown vertex algorithm {algorithm!r}; expected one of {VERTEX_ALGORITHMS}"
        )
    if algorithm == "legal-color" and c is None:
        raise InvalidParameterError(
            "algorithm 'legal-color' needs the neighborhood-independence bound c"
        )
    if algorithm == "luby" and quality is not None:
        raise InvalidParameterError(
            "quality presets only apply to the Legal-Color algorithm"
        )
    _check_budget(budget, algorithm)

    engine, reasons["engine"] = _decide_engine(engine)

    if algorithm == "legal-color":
        quality, reasons["quality"], quality_predicted = _decide_quality(
            fast.max_degree, max(2, fast.num_nodes), budget, epsilon, quality
        )
        predicted.update(quality_predicted)
        raw = core_color_vertices(fast, c, quality=quality, epsilon=epsilon, engine=engine)
    else:
        raw = luby_vertex_coloring(fast, seed=seed, engine=engine)
    return _portfolio_result(
        raw,
        engine,
        raw.colors,
        algorithm=algorithm,
        quality=quality,
        route=None,
        reasons=reasons,
        predicted=predicted,
        overrides=overrides,
    )


def color_edges(
    graph: FastNetwork,
    *,
    quality: Optional[str] = None,
    budget: Optional[float] = None,
    algorithm: Optional[str] = None,
    route: Optional[str] = None,
    engine: Optional[str] = None,
    epsilon: float = 0.75,
    seed: int = 0,
) -> PortfolioResult:
    """Edge-color ``graph``, choosing algorithm/engine/preset/route automatically.

    The knobs mirror :func:`color_graph`; additionally ``route`` pins the
    direct (Theorem 5.5) or Lemma 5.2 simulation implementation, and
    ``algorithm`` may name one of the baselines (``"panconesi-rizzi"``,
    ``"greedy-reduction"``, ``"luby"``) instead of the paper's
    ``"legal-color"`` pipeline.  The route is the one whose Legal-Color
    plan (:func:`~repro.core.edge_coloring.plan_edge_coloring`) gives the
    smaller palette for the chosen preset; ties go to ``"direct"``.  Both
    planned palettes are quoted in ``decision.predicted`` and
    ``decision.reasons["route"]``.
    """
    fast = fast_view(graph)
    overrides = tuple(
        name
        for name, value in (
            ("algorithm", algorithm),
            ("engine", engine),
            ("quality", quality),
            ("route", route),
        )
        if value is not None
    )

    reasons = {}
    predicted = {}
    if algorithm is None:
        algorithm = "legal-color"
        reasons["algorithm"] = "paper's Legal-Color pipeline (default)"
    else:
        reasons["algorithm"] = "algorithm pinned by caller"
    if algorithm not in EDGE_ALGORITHMS:
        raise InvalidParameterError(
            f"unknown edge algorithm {algorithm!r}; expected one of {EDGE_ALGORITHMS}"
        )
    if algorithm != "legal-color":
        if route is not None:
            raise InvalidParameterError(
                f"route only applies to algorithm 'legal-color', not {algorithm!r}"
            )
        if quality is not None:
            raise InvalidParameterError(
                "quality presets only apply to the Legal-Color algorithm"
            )
    _check_budget(budget, algorithm)

    engine, reasons["engine"] = _decide_engine(engine)

    if algorithm == "legal-color":
        # The budget search predicts from the 2 Delta - 2 bound on
        # Delta(L(G)) its round multipliers were fitted with.
        delta_line = max(1, 2 * fast.max_degree - 2) if fast.max_degree else 1
        quality, reasons["quality"], quality_predicted = _decide_quality(
            delta_line, max(2, fast.num_nodes), budget, epsilon, quality
        )
        predicted.update(quality_predicted)
        direct, simulation = (
            plan_edge_coloring(fast, quality, epsilon, route=name).palette
            for name in ("direct", "simulation")
        )
        predicted["palette_direct"], predicted["palette_simulation"] = direct, simulation
        if route is None:
            # Ties go to the direct route: same palette, O(log n)-bit messages.
            route = "simulation" if simulation < direct else "direct"
            reasons["route"] = f"planned palette {direct} direct vs {simulation} simulation"
        else:
            reasons["route"] = "route pinned by caller"
        raw = core_color_edges(
            fast,
            quality=quality,
            epsilon=epsilon,
            route=route,
            engine=engine,
        )
    elif algorithm == "panconesi-rizzi":
        raw = panconesi_rizzi_edge_coloring(fast, engine=engine)
    elif algorithm == "greedy-reduction":
        raw = greedy_reduction_edge_coloring(fast, engine=engine)
    else:
        raw = luby_edge_coloring(fast, seed=seed, engine=engine)
    return _portfolio_result(
        raw,
        engine,
        raw.edge_colors,
        algorithm=algorithm,
        quality=quality,
        route=route if algorithm == "legal-color" else None,
        reasons=reasons,
        predicted=predicted,
        overrides=overrides,
    )
