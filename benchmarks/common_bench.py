"""Shared helpers for the benchmark harnesses.

Each ``bench_*.py`` file regenerates one evaluation artifact of the paper
(a table, a figure, or a theorem's quantitative claim): it sweeps the relevant
parameter, prints the reproduced rows with :func:`repro.analysis.format_table`,
and wraps one representative instance in ``pytest-benchmark`` so that
``pytest benchmarks/bench_*.py --benchmark-only`` both times the implementation and
leaves the reproduced artifact in the captured output.

The sweeps themselves run through :class:`repro.experiments.ExperimentRunner`:
scenarios are sharded across worker processes and their results memoized in an
on-disk cache (location: ``$REPRO_EXPERIMENT_CACHE``, default under the system
temp directory -- shared with ``examples/scaling_study.py``), so re-running a
benchmark after an unrelated change is nearly free.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration (smaller graphs,
shorter sweeps) and ``REPRO_BENCH_WORKERS`` to pin the worker count (``0``
forces serial in-process execution).
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from repro.experiments import (
    ExperimentRunner,
    GraphSpec,
    Scenario,
    default_cache_dir,
    progress_ticker,
)
from repro.local_model import FastNetwork

#: Quick mode: used by CI to smoke-test the harnesses in seconds.
QUICK: bool = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The Delta sweep used by the Table 1 / Table 2 reproductions.  The paper's
#: ranges are expressed relative to n (log* n, log n, polylog n); at the
#: laptop scales below they translate into small-to-moderate degrees.
TABLE_DEGREES: Sequence[int] = (4, 6) if QUICK else (4, 6, 8, 12, 16, 22)

#: Number of vertices of the Table 1 / Table 2 workload graphs.
TABLE_NUM_NODES: int = 32 if QUICK else 48


def bench_runner(max_workers: Optional[int] = None) -> ExperimentRunner:
    """The shared :class:`ExperimentRunner` used by the benchmark sweeps.

    Set ``REPRO_BENCH_PROGRESS=1`` to get a per-scenario stderr ticker fed
    from the worker-pool futures (off by default).
    """
    configured = os.environ.get("REPRO_BENCH_WORKERS")
    if max_workers is None and configured is not None:
        max_workers = int(configured)
    on_progress = None
    if os.environ.get("REPRO_BENCH_PROGRESS", "") not in ("", "0"):
        on_progress = progress_ticker()
    return ExperimentRunner(
        cache_dir=default_cache_dir(),
        max_workers=max_workers,
        on_progress=on_progress,
    )


def regular_workload_spec(
    degree: int, n: int = TABLE_NUM_NODES, seed: int = 0
) -> GraphSpec:
    """The Table 1 / Table 2 workload: an array-built random ``degree``-regular graph."""
    if (n * degree) % 2 != 0:
        n += 1
    return GraphSpec("random_regular", n=n, degree=degree, seed=seed + degree)


def regular_workload(degree: int, n: int = TABLE_NUM_NODES, seed: int = 0) -> FastNetwork:
    """The built network for :func:`regular_workload_spec` (same graph)."""
    return regular_workload_spec(degree, n=n, seed=seed).build()


def table_edge_scenarios(
    algorithms: Sequence[tuple],
    degrees: Sequence[int] = TABLE_DEGREES,
    n: int = TABLE_NUM_NODES,
    seed: int = 0,
    engine: str = "vectorized",
) -> list:
    """Scenarios for a Table 1 / Table 2 style sweep.

    ``algorithms`` is a sequence of ``(label, algorithm_name, params)``
    triples; one scenario is produced per (degree, algorithm) pair, named
    ``"{label}-d{degree}"``.  Since the baselines grew array-native kernels
    the sweeps default to the vectorized engine; rounds, colors, and message
    counts are engine-invariant (locked by the equivalence suite), so
    records stay comparable across engines.
    """
    scenarios = []
    for degree in degrees:
        spec = regular_workload_spec(degree, n=n, seed=seed)
        for label, algorithm, params in algorithms:
            scenarios.append(
                Scenario.make(
                    name=f"{label}-d{degree}",
                    graph=spec,
                    algorithm=algorithm,
                    params=params,
                    engine=engine,
                )
            )
    return scenarios


def run_once(benchmark, func: Callable[[], object]):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def print_section(title: str) -> None:
    """Print a visually separated section header into the captured output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
