"""Declarative experiment scenarios.

A :class:`Scenario` describes one complete run -- *which graph*, *which
algorithm*, *which parameters*, *which seed*, *which engine* -- as plain,
picklable, JSON-serializable data.  That makes scenarios shardable across
worker processes and hashable into stable cache keys: the SHA-256 of a
scenario's canonical key addresses its result on disk (see
:mod:`repro.experiments.cache`).

Graphs, tradeoff ``g``-functions and algorithms are referenced *by name*
through the registries below, never by callable, so a scenario constructed in
the parent process means the same thing inside a worker.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.local_model.engine import resolve_engine
from repro.local_model.fast_network import FastNetwork

# --------------------------------------------------------------------------- #
# Graph family registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GraphSpec:
    """A picklable description of a workload graph.

    Attributes
    ----------
    family:
        Name in :data:`GRAPH_FAMILIES` (e.g. ``"random_regular"``).
    n, degree, seed:
        The standard size / degree / seed knobs (families ignore what they do
        not use).
    line_graph:
        Build the line graph of the base graph (the paper's edge-coloring
        workloads are vertex-coloring workloads on ``L(G)``), derived on the
        CSR arrays.
    extra:
        Additional family-specific parameters as a sorted tuple of
        ``(key, value)`` pairs.
    """

    family: str
    n: Optional[int] = None
    degree: Optional[int] = None
    seed: Optional[int] = None
    line_graph: bool = False
    extra: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> FastNetwork:
        """Construct the described network (array-built, see :mod:`repro.graphs.generators`)."""
        try:
            builder = GRAPH_FAMILIES[self.family]
        except KeyError:
            raise InvalidParameterError(
                f"unknown graph family {self.family!r}; known: {sorted(GRAPH_FAMILIES)}"
            ) from None
        network = builder(self)
        if self.line_graph:
            from repro.local_model.line_csr import build_line_graph_fast

            network = build_line_graph_fast(network)
        return network

    def key(self) -> Dict[str, Any]:
        """The canonical JSON-ready identity of this spec."""
        return {
            "family": self.family,
            "n": self.n,
            "degree": self.degree,
            "seed": self.seed,
            "line_graph": self.line_graph,
            "extra": [list(pair) for pair in self.extra],
        }


def _build_random_regular(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.random_regular(spec.n, spec.degree, seed=spec.seed or 0)


def _build_cycle(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.cycle_graph(spec.n)


def _build_path(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.path_graph(spec.n)


def _build_star(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.star_graph(spec.n)


def _build_complete(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.complete_graph(spec.n)


def _build_grid(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    extra = dict(spec.extra)
    rows = extra.get("rows", spec.n)
    cols = extra.get("cols", spec.n)
    return graphs.grid_graph(rows, cols)


def _build_hypercube(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.hypercube_graph(spec.n)


def _build_clique_with_pendants(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    return graphs.clique_with_pendants(spec.n)


def _build_erdos_renyi(spec: GraphSpec) -> FastNetwork:
    from repro import graphs

    extra = dict(spec.extra)
    probability = extra.get("edge_probability", 0.1)
    return graphs.erdos_renyi(spec.n, probability, seed=spec.seed or 0)


def _build_bipartite_regular(spec: GraphSpec) -> FastNetwork:
    """The switch-scheduling workload: ``n`` ports per side, ``degree`` demands."""
    from repro import graphs

    return graphs.random_bipartite_regular(spec.n, spec.degree, seed=spec.seed or 0)


def _build_barabasi_albert(spec: GraphSpec) -> FastNetwork:
    """Preferential attachment with ``degree`` edges per arriving vertex."""
    from repro import graphs

    return graphs.barabasi_albert(spec.n, spec.degree, seed=spec.seed or 0)


def _build_planted_degree_sequence(spec: GraphSpec) -> FastNetwork:
    """Configuration model over a heavy-tailed sequence (knobs via ``extra``)."""
    from repro import graphs

    extra = dict(spec.extra)
    degrees = graphs.heavy_tailed_degree_sequence(
        spec.n,
        exponent=extra.get("exponent", 2.5),
        min_degree=extra.get("min_degree", 1),
        max_degree=extra.get("max_degree"),
        seed=spec.seed or 0,
    )
    return graphs.planted_degree_sequence(degrees, seed=spec.seed or 0)


def _build_random_geometric(spec: GraphSpec) -> FastNetwork:
    """Unit-square geometric graph; connection radius via ``extra``."""
    from repro import graphs

    extra = dict(spec.extra)
    radius = extra.get("radius", 0.1)
    return graphs.random_geometric(spec.n, radius, seed=spec.seed or 0)


def _build_bipartite_switch(spec: GraphSpec) -> FastNetwork:
    """Switch-fabric demand instance: ``n`` ports, ``degree`` demands per port."""
    from repro import graphs

    return graphs.bipartite_switch(spec.n, spec.degree, seed=spec.seed or 0)


#: family name -> builder(spec) -> FastNetwork.  Builders read only ``n``,
#: ``degree``, ``seed`` and ``extra`` from the spec.
GRAPH_FAMILIES: Dict[str, Callable[[GraphSpec], FastNetwork]] = {
    "random_regular": _build_random_regular,
    "cycle": _build_cycle,
    "path": _build_path,
    "star": _build_star,
    "complete": _build_complete,
    "grid": _build_grid,
    "hypercube": _build_hypercube,
    "clique_with_pendants": _build_clique_with_pendants,
    "erdos_renyi": _build_erdos_renyi,
    "bipartite_regular": _build_bipartite_regular,
    "barabasi_albert": _build_barabasi_albert,
    "planted_degree_sequence": _build_planted_degree_sequence,
    "random_geometric": _build_random_geometric,
    "bipartite_switch": _build_bipartite_switch,
}


# --------------------------------------------------------------------------- #
# Tradeoff g-function registry (callables are not picklable scenario data)
# --------------------------------------------------------------------------- #

G_FUNCTIONS: Dict[str, Callable[[int], float]] = {
    "constant2": lambda delta: 2.0,
    "sqrt": lambda delta: float(delta) ** 0.5,
    "linear": lambda delta: float(delta),
    "log": lambda delta: max(1.0, math.log2(max(2, delta))),
}


# --------------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """One (graph, algorithm, params, seed, engine) experiment.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    scenario is hashable and its cache key is order-independent; use
    :meth:`make` to build one from a plain dict.

    ``engine`` is always a *concrete* engine name: :meth:`make` and
    :meth:`with_engine` resolve ``None`` to ``"vectorized"`` immediately,
    and :meth:`key` resolves defensively for directly constructed instances.
    Cache entries therefore always record which engine actually computed
    them -- a ``"vectorized"`` result can never be served for a ``"reference"``
    request (or vice versa).
    """

    name: str
    graph: GraphSpec
    algorithm: str
    params: Tuple[Tuple[str, Any], ...] = ()
    engine: str = "vectorized"

    @classmethod
    def make(
        cls,
        name: str,
        graph: GraphSpec,
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
        engine: Optional[str] = "vectorized",
    ) -> "Scenario":
        """Build a scenario from a plain parameter mapping.

        ``engine=None`` is resolved to its concrete name (``"vectorized"``),
        so the cache key always names the engine that ran.
        """
        pairs = tuple(sorted((params or {}).items()))
        return cls(
            name=name,
            graph=graph,
            algorithm=algorithm,
            params=pairs,
            engine=resolve_engine(engine),
        )

    def with_engine(self, engine: Optional[str]) -> "Scenario":
        """A copy of this scenario pinned to another engine."""
        return replace(self, engine=resolve_engine(engine))

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> Dict[str, Any]:
        """The canonical identity of this scenario (JSON-ready).

        ``name`` is presentation-only and deliberately excluded, so renaming a
        scenario does not invalidate its cached result.  The engine is part
        of the key (resolved to a concrete name), so results from different
        engines can never collide in the cache.
        """
        return {
            "graph": self.graph.key(),
            "algorithm": self.algorithm,
            "params": [list(pair) for pair in self.params],
            "engine": resolve_engine(self.engine),
        }

    def cache_token(self) -> str:
        """The SHA-256 cache address of this scenario's result.

        The package version is folded into the token, so a persistent cache
        can never serve results computed by an older algorithm revision --
        bumping ``repro.__version__`` invalidates every entry.
        """
        import repro

        document = {"scenario": self.key(), "code_version": repro.__version__}
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Algorithm registry
# --------------------------------------------------------------------------- #


def coloring_digest(colors: Mapping[Any, int]) -> str:
    """A stable digest of a coloring, for cache-vs-fresh equivalence checks."""
    items = sorted((repr(node), int(color)) for node, color in colors.items())
    canonical = json.dumps(items, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_digest(payload: Mapping[str, Any]) -> str:
    """The SHA-256 of a result payload's canonical JSON form.

    This is the integrity digest used end to end by the resilience layer:
    workers stamp it on their result envelope (so the parent detects payloads
    corrupted in transit and retries) and :class:`~repro.experiments.cache.
    ResultCache` stores it with every entry (so corrupt or tampered cache
    files are quarantined instead of silently served or endlessly re-missed).
    JSON canonicalization means the digest is stable across the
    pickle-transport and disk round trips the payload actually takes.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _metrics_payload(metrics) -> Dict[str, int]:
    return {
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "total_words": metrics.total_words,
        "max_message_words": metrics.max_message_words,
    }


def _coloring_payload(colors: Mapping[Any, int]) -> Dict[str, Any]:
    return {
        "colors_used": len(set(colors.values())),
        "coloring_digest": coloring_digest(colors),
    }


def _run_legal_coloring(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.core import color_vertices
    from repro.verification import assert_legal_vertex_coloring

    result = color_vertices(
        network,
        c=params.get("c", 2),
        quality=params.get("quality", "superlinear"),
        epsilon=params.get("epsilon", 0.75),
        engine=engine,
    )
    # Verify through the color column (masked CSR comparisons).
    assert_legal_vertex_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.colors))
    payload.update(palette=result.palette, levels=result.num_levels, verified=True)
    return payload


def _run_edge_coloring(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.core import color_edges
    from repro.verification import assert_legal_edge_coloring

    result = color_edges(
        network,
        quality=params.get("quality", "superlinear"),
        epsilon=params.get("epsilon", 0.75),
        route=params.get("route", "direct"),
        engine=engine,
    )
    assert_legal_edge_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.edge_colors))
    payload.update(palette=result.palette, verified=True)
    return payload


def _run_defective_coloring(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.core import run_defective_color
    from repro.verification.coloring import coloring_defect

    colors, info, metrics = run_defective_color(
        network,
        b=params.get("b", 1),
        p=params.get("p", 2),
        c=params.get("c", 2),
        mode=params.get("mode", "vertex"),
        engine=engine,
    )
    defect = coloring_defect(network, colors)
    payload = _metrics_payload(metrics)
    payload.update(_coloring_payload(colors))
    payload.update(
        palette=info.p,
        defect=defect,
        defect_bound=info.psi_defect_bound,
        verified=defect <= info.psi_defect_bound,
    )
    return payload


def _run_tradeoff(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.core import tradeoff_color_vertices
    from repro.verification import assert_legal_vertex_coloring

    g_name = params.get("g", "sqrt")
    try:
        g = G_FUNCTIONS[g_name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown tradeoff function {g_name!r}; known: {sorted(G_FUNCTIONS)}"
        ) from None
    result = tradeoff_color_vertices(
        network,
        c=params.get("c", 2),
        g=g,
        eta=params.get("eta", 0.5),
        engine=engine,
    )
    assert_legal_vertex_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.colors))
    payload.update(
        palette=result.palette,
        split_palette=result.split_palette,
        verified=True,
    )
    return payload


def _run_randomized(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.core import randomized_color_vertices
    from repro.verification import assert_legal_vertex_coloring

    result = randomized_color_vertices(
        network,
        c=params.get("c", 2),
        seed=params.get("seed", 0),
        engine=engine,
    )
    assert_legal_vertex_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.colors))
    payload.update(palette=result.palette, verified=True)
    return payload


def _run_panconesi_rizzi(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.baselines import panconesi_rizzi_edge_coloring
    from repro.verification import assert_legal_edge_coloring

    result = panconesi_rizzi_edge_coloring(network, engine=engine)
    assert_legal_edge_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.edge_colors))
    payload.update(palette=result.palette, verified=True)
    return payload


def _run_luby_edge(
    network: FastNetwork, params: Dict[str, Any], engine: str
) -> Dict[str, Any]:
    from repro.baselines import luby_edge_coloring
    from repro.verification import assert_legal_edge_coloring

    result = luby_edge_coloring(network, seed=params.get("seed", 0), engine=engine)
    assert_legal_edge_coloring(network, result.color_column)
    payload = _metrics_payload(result.metrics)
    payload.update(_coloring_payload(result.edge_colors))
    payload.update(palette=result.palette, verified=True)
    return payload


#: algorithm name -> runner(network, params, engine) -> payload dict.
ALGORITHMS: Dict[str, Callable[[FastNetwork, Dict[str, Any], str], Dict[str, Any]]] = {
    "legal_coloring": _run_legal_coloring,
    "edge_coloring": _run_edge_coloring,
    "defective_coloring": _run_defective_coloring,
    "tradeoff": _run_tradeoff,
    "randomized_coloring": _run_randomized,
    "panconesi_rizzi": _run_panconesi_rizzi,
    "luby_edge": _run_luby_edge,
}
