"""Parallel experiment sweeps with on-disk result caching.

This package turns one-off benchmark loops into declarative, shardable
sweeps:

* :class:`~repro.experiments.scenarios.GraphSpec` /
  :class:`~repro.experiments.scenarios.Scenario` describe a workload as plain
  picklable data (graph family, algorithm name, parameters, seed, engine);
* :class:`~repro.experiments.runner.ExperimentRunner` executes scenarios
  in-process (``max_workers=0``) or sharded across
  ``ProcessPoolExecutor`` workers (see :mod:`repro.experiments.executors`)
  and memoizes results on disk, keyed by the SHA-256 of the scenario's
  canonical key (see :mod:`repro.experiments.cache` for the layout);
* results come back as :class:`~repro.experiments.runner.ScenarioResult`
  objects exposing rounds / messages / palette / colors-used / wall time and
  a stable coloring digest.

Quickstart::

    from repro.experiments import ExperimentRunner, GraphSpec, Scenario

    scenarios = [
        Scenario.make(
            name=f"legal-d{degree}",
            graph=GraphSpec("random_regular", n=256, degree=degree, seed=1),
            algorithm="legal_coloring",
            params={"c": 4, "quality": "superlinear"},
        )
        for degree in (8, 16, 32)
    ]
    results = ExperimentRunner(cache_dir=".experiment_cache").run(scenarios)
    for result in results:
        print(result.name, result.rounds, result.colors_used, result.cached)
"""

from repro.experiments.cache import (
    CACHE_ENV_VAR,
    CACHE_VERSION,
    DEFAULT_QUARANTINE_KEEP,
    QUARANTINE_DIR_NAME,
    CacheIntegrityWarning,
    ResultCache,
    default_cache_dir,
)
from repro.experiments.runner import (
    ExperimentRunner,
    ScenarioResult,
    SweepStats,
    progress_ticker,
)
from repro.experiments.scenarios import (
    ALGORITHMS,
    G_FUNCTIONS,
    GRAPH_FAMILIES,
    GraphSpec,
    Scenario,
    coloring_digest,
    payload_digest,
)

__all__ = [
    "ALGORITHMS",
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "CacheIntegrityWarning",
    "DEFAULT_QUARANTINE_KEEP",
    "ExperimentRunner",
    "G_FUNCTIONS",
    "GRAPH_FAMILIES",
    "GraphSpec",
    "QUARANTINE_DIR_NAME",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "SweepStats",
    "coloring_digest",
    "default_cache_dir",
    "payload_digest",
    "progress_ticker",
]
