"""`color_graph` / `color_edges`: the auto-tuning front door of the repo.

Both entry points take a graph (legacy :class:`Network` or CSR
:class:`FastNetwork`), consult the measured :class:`CostModel`, and pick

* the **algorithm** — the paper's Legal-Color pipeline by default for
  edges (and for vertices when a neighborhood-independence bound ``c`` is
  supplied), the Luby randomized baseline for general vertex coloring;
* the **engine** — the process default of
  :func:`~repro.local_model.engine.default_engine` (``"compiled"`` when a
  kernel backend resolves, else ``"vectorized"``); engines are
  bit-identical, so this is not a cost decision;
* the **quality preset** — the Theorem 4.8 palette/rounds tradeoff point,
  by walking the presets from best palette to fastest until the predicted
  round count fits the caller's ``budget``;
* the **route** — direct (Theorem 5.5) versus Lemma 5.2 simulation for
  edge coloring, by predicted cost.

Every decision can be overridden by passing the corresponding kwarg
(``algorithm=``, ``engine=``, ``quality=``, ``route=``); overridden knobs
are passed through untouched and recorded in ``result.decision.overrides``.
The returned :class:`PortfolioResult` is one normalized shape — color
mapping + dense ``color_column`` + palette bound + :class:`RunMetrics` +
the :class:`PortfolioDecision` taken — regardless of which algorithm ran.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.greedy_reduction import greedy_reduction_edge_coloring
from repro.baselines.luby_random import luby_edge_coloring, luby_vertex_coloring
from repro.baselines.panconesi_rizzi import panconesi_rizzi_edge_coloring
from repro.core.edge_coloring import color_edges as core_color_edges
from repro.core.legal_coloring import color_vertices as core_color_vertices
from repro.exceptions import InvalidParameterError
from repro.local_model import kernels
from repro.local_model.engine import default_engine
from repro.local_model.fast_network import fast_view
from repro.portfolio.cost_model import CostModel
from repro.portfolio.result import PortfolioDecision, PortfolioResult
from repro.resilience.degrade import run_with_degradation
from repro.verification.coloring import NetworkLike

VERTEX_ALGORITHMS = ("legal-color", "luby")
EDGE_ALGORITHMS = ("legal-color", "panconesi-rizzi", "greedy-reduction", "luby")


def _invoke_degradable(invoke, engine: str, reasons: dict):
    """Run ``invoke(engine)`` under the engine degradation chain.

    On an :class:`~repro.exceptions.EngineFailure` the call is retried on the
    next bit-identical engine down the chain (compiled -> vectorized ->
    batched -> reference).  A degradation is narrated in ``reasons["engine"]``
    and stamped on the result's metrics, so the decision record never claims
    an engine that did not actually produce the coloring.
    """
    outcome = run_with_degradation(invoke, engine)
    if outcome.degraded:
        failed = ", ".join(name for name, _ in outcome.failures)
        reasons["engine"] = (
            reasons.get("engine", "")
            + f"; degraded to {outcome.engine!r} after engine failure on: {failed}"
        )
        outcome.record_on_metrics(outcome.result.metrics)
    return outcome


def _line_csr_entries(fast) -> int:
    """The CSR size of ``L(G)``, straight from ``G``'s degree column.

    An edge ``{u, v}`` has ``d(u) + d(v) - 2`` line-graph neighbors, so the
    directed entries of ``L(G)`` total ``sum_v d(v)^2 - 2|E|``; adding the
    ``|E|`` line-graph nodes gives the work unit without building ``L(G)``.
    """
    degrees = fast.degrees_np.astype(np.int64)
    num_edges = int(degrees.sum()) // 2
    return int((degrees * degrees).sum()) - 2 * num_edges + num_edges


def _decide_engine(override: Optional[str]):
    """The caller's engine, else the process default, with the reason."""
    if override is not None:
        return override, "engine pinned by caller"
    backend = kernels.backend_name()
    where = (
        f"kernel backend {backend!r}"
        if backend is not None
        else "no kernel backend resolved"
    )
    return default_engine(), f"process default engine ({where})"


def _decide_quality(
    model: CostModel,
    delta: int,
    n: int,
    budget: Optional[float],
    epsilon: float,
    override: Optional[str],
):
    if override is not None:
        return override, "quality pinned by caller", {}
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
    graph: NetworkLike,
    *,
    c: Optional[int] = None,
    quality: Optional[str] = None,
    budget: Optional[float] = None,
    algorithm: Optional[str] = None,
    engine: Optional[str] = None,
    epsilon: float = 0.75,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
) -> PortfolioResult:
    """Vertex-color ``graph``, choosing algorithm/engine/preset automatically.

    Parameters
    ----------
    graph:
        ``Network | FastNetwork``.
    c:
        Neighborhood-independence bound, when known.  Supplying it unlocks
        the paper's deterministic Legal-Color pipeline; without it the
        portfolio falls back to the Luby randomized ``Delta + 1`` coloring.
    quality:
        Pin a Theorem 4.8 preset (``"linear"`` / ``"superlinear"`` /
        ``"subpolynomial"``) instead of letting the budget search choose.
        Only meaningful for the Legal-Color algorithm.
    budget:
        Maximum acceptable number of communication rounds.  The portfolio
        keeps the best palette guarantee whose predicted rounds fit.
    algorithm:
        ``"legal-color"`` or ``"luby"`` to bypass the algorithm choice.
    engine:
        Execution engine override (``"reference"`` / ``"batched"`` /
        ``"vectorized"`` / ``"compiled"``).
    epsilon:
        Exponent knob forwarded to the Legal-Color presets.
    seed:
        Random seed for the Luby baseline.
    cost_model:
        A :class:`CostModel` to decide with (default: the committed
        calibration record).
    """
    model = cost_model if cost_model is not None else CostModel.default()
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

    engine, reasons["engine"] = _decide_engine(engine)

    if algorithm == "legal-color":
        quality, reasons["quality"], quality_predicted = _decide_quality(
            model, fast.max_degree, max(2, fast.num_nodes), budget, epsilon, quality
        )
        predicted.update(quality_predicted)
        chosen_quality = quality
        outcome = _invoke_degradable(
            lambda eng: core_color_vertices(
                fast, c, quality=chosen_quality, epsilon=epsilon, engine=eng
            ),
            engine,
            reasons,
        )
    else:
        outcome = _invoke_degradable(
            lambda eng: luby_vertex_coloring(fast, seed=seed, engine=eng),
            engine,
            reasons,
        )
    raw = outcome.result

    decision = PortfolioDecision(
        algorithm=algorithm,
        engine=outcome.engine,
        quality=quality,
        route=None,
        reasons=reasons,
        predicted=predicted,
        overrides=overrides,
        model_source=model.source,
        kernel_backend=kernels.backend_name(),
        kernel_threads=kernels.get_num_threads(),
        degraded_from=outcome.degraded_from,
    )
    return PortfolioResult(
        colors=raw.colors,
        palette=raw.palette,
        metrics=raw.metrics,
        decision=decision,
        color_column=raw.color_column,
        raw=raw,
    )


def color_edges(
    graph: NetworkLike,
    *,
    quality: Optional[str] = None,
    budget: Optional[float] = None,
    algorithm: Optional[str] = None,
    route: Optional[str] = None,
    engine: Optional[str] = None,
    epsilon: float = 0.75,
    use_auxiliary_coloring: bool = True,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
) -> PortfolioResult:
    """Edge-color ``graph``, choosing algorithm/engine/preset/route automatically.

    The knobs mirror :func:`color_graph`; additionally ``route`` pins the
    direct (Theorem 5.5) or Lemma 5.2 simulation implementation, and
    ``algorithm`` may name one of the baselines (``"panconesi-rizzi"``,
    ``"greedy-reduction"``, ``"luby"``) instead of the paper's
    ``"legal-color"`` pipeline.
    """
    model = cost_model if cost_model is not None else CostModel.default()
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

    engine, reasons["engine"] = _decide_engine(engine)

    if algorithm == "legal-color":
        line_entries = _line_csr_entries(fast)
        delta_line = max(1, 2 * fast.max_degree - 2) if fast.max_degree else 1
        quality, reasons["quality"], quality_predicted = _decide_quality(
            model, delta_line, max(2, fast.num_nodes), budget, epsilon, quality
        )
        predicted.update(quality_predicted)
        predicted["route_direct_seconds"] = model.predict_route_seconds(
            "direct", line_entries
        )
        predicted["route_simulation_seconds"] = model.predict_route_seconds(
            "simulation", line_entries
        )
        if route is None:
            route = model.choose_route(line_entries)
            reasons["route"] = (
                f"predicted {predicted['route_direct_seconds']:.4f}s direct vs "
                f"{predicted['route_simulation_seconds']:.4f}s simulation"
            )
        else:
            reasons["route"] = "route pinned by caller"
        chosen_quality, chosen_route = quality, route
        outcome = _invoke_degradable(
            lambda eng: core_color_edges(
                fast,
                quality=chosen_quality,
                epsilon=epsilon,
                route=chosen_route,
                use_auxiliary_coloring=use_auxiliary_coloring,
                engine=eng,
            ),
            engine,
            reasons,
        )
    elif algorithm == "panconesi-rizzi":
        outcome = _invoke_degradable(
            lambda eng: panconesi_rizzi_edge_coloring(fast, engine=eng),
            engine,
            reasons,
        )
    elif algorithm == "greedy-reduction":
        outcome = _invoke_degradable(
            lambda eng: greedy_reduction_edge_coloring(fast, engine=eng),
            engine,
            reasons,
        )
    else:
        outcome = _invoke_degradable(
            lambda eng: luby_edge_coloring(fast, seed=seed, engine=eng),
            engine,
            reasons,
        )
    raw = outcome.result

    decision = PortfolioDecision(
        algorithm=algorithm,
        engine=outcome.engine,
        quality=quality,
        route=route if algorithm == "legal-color" else None,
        reasons=reasons,
        predicted=predicted,
        overrides=overrides,
        model_source=model.source,
        kernel_backend=kernels.backend_name(),
        kernel_threads=kernels.get_num_threads(),
        degraded_from=outcome.degraded_from,
    )
    return PortfolioResult(
        colors=raw.edge_colors,
        palette=raw.palette,
        metrics=raw.metrics,
        decision=decision,
        color_column=raw.color_column,
        raw=raw,
    )
