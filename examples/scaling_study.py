#!/usr/bin/env python3
"""Scaling study: rounds versus maximum degree (a miniature Table 1).

Sweeps the maximum degree Delta on random regular graphs and prints, for each
Delta, the measured rounds and colors of

* the paper's O(Delta^{1+eta})-edge-coloring (Theorem 5.5(2)),
* the paper's O(Delta)-edge-coloring (Theorem 5.5(1)),
* the Panconesi-Rizzi-style (2 Delta - 1) baseline,

plus the paper's analytic curves -- the reproducible essence of Table 1.

The sweep runs through :class:`repro.experiments.ExperimentRunner`: every
(degree, algorithm) pair becomes a picklable scenario, the scenarios are
sharded across worker processes (each on the vectorized engine, with the
coloring verified in-worker), and the results are memoized in an on-disk
cache -- re-running this script is nearly instantaneous.  A larger sweep (and
the crossover analysis) is produced by
``pytest benchmarks/bench_table1_deterministic_comparison.py --benchmark-only -s``.

A second sweep times one larger instance on the vectorized engine with its
fused kernels on and off (identical colorings asserted) and then lets the
portfolio facade decide, printing the decision together with the kernel backend and
thread count it was made against.

Run with:  python examples/scaling_study.py
"""

from __future__ import annotations

import time

import repro
from repro import graphs
from repro.analysis import format_table, rounds_new_superlinear, rounds_panconesi_rizzi
from repro.experiments import ExperimentRunner, GraphSpec, Scenario, default_cache_dir
from repro.local_model import kernels

#: (row label, experiment algorithm, parameters) -- the three Table 1 columns.
ALGORITHMS = (
    ("fast", "edge_coloring", {"quality": "superlinear", "route": "direct"}),
    ("linear", "edge_coloring", {"quality": "linear", "route": "direct"}),
    ("baseline", "panconesi_rizzi", {}),
)

DEGREES = (4, 8, 12, 16)
N = 48

#: Instance for the kernel sweep -- large enough that the fused kernels
#: visibly win, small enough to stay interactive.
ENGINE_SWEEP_N = 4096
ENGINE_SWEEP_DEGREE = 16


def build_scenarios() -> list:
    """One scenario per (degree, algorithm), on the vectorized engine.

    The workload graphs use the array-built fast backend (part of the cache
    key, so these results never alias legacy-built ones); the paper
    algorithms then verify their colorings through the masked-CSR oracles.
    """
    scenarios = []
    for degree in DEGREES:
        spec = GraphSpec(
            "random_regular", n=N, degree=degree, seed=degree, backend="fast"
        )
        for label, algorithm, params in ALGORITHMS:
            scenarios.append(
                Scenario.make(
                    name=f"{label}-d{degree}",
                    graph=spec,
                    algorithm=algorithm,
                    params=params,
                )
            )
    return scenarios


def engine_sweep() -> None:
    """Time one instance with kernels on and off, then show the portfolio's pick."""
    network = graphs.random_regular(
        ENGINE_SWEEP_N, ENGINE_SWEEP_DEGREE, seed=7, backend="fast"
    )
    rows = []
    colors = None
    for label, backend in (
        (f"kernels on ({kernels.backend_name() or 'none resolved'})", kernels.get_backend()),
        ("kernels off (numpy)", None),
    ):
        restore = kernels.force_backend(backend, reason=label)
        try:
            started = time.perf_counter()
            result = repro.color_graph(network, engine="vectorized", seed=1)
            elapsed = time.perf_counter() - started
        finally:
            restore()
        if colors is None:
            colors = result.colors
        # Kernels are bit-identical to numpy; switching them changes only the clock.
        assert result.colors == colors
        rows.append([label, round(elapsed, 3), result.colors_used])
    print(
        format_table(
            ["vectorized engine", "seconds", "colors"],
            rows,
            title=(
                "One instance, kernels on and off (random_regular "
                f"n = {ENGINE_SWEEP_N}, Delta = {ENGINE_SWEEP_DEGREE})"
            ),
        )
    )

    auto = repro.color_graph(network, seed=1)
    decision = auto.decision
    print(f"\nPortfolio decision: engine='{decision.engine}'")
    print(f"  why: {decision.reasons['engine']}")
    print(
        f"  kernel backend: {auto.kernel_backend or 'none resolved'}; "
        f"kernel threads: {auto.kernel_threads}"
    )


def main() -> None:
    runner = ExperimentRunner(cache_dir=default_cache_dir())
    results = {result.name: result for result in runner.run(build_scenarios())}

    rows = []
    for degree in DEGREES:
        fast = results[f"fast-d{degree}"]
        linear = results[f"linear-d{degree}"]
        baseline = results[f"baseline-d{degree}"]
        # Every worker verified its coloring before reporting.
        assert fast.verified and linear.verified and baseline.verified
        rows.append(
            [
                degree,
                fast.rounds,
                fast.colors_used,
                linear.rounds,
                linear.colors_used,
                baseline.rounds,
                baseline.colors_used,
                round(rounds_new_superlinear(degree, N), 1),
                round(rounds_panconesi_rizzi(degree, N), 1),
            ]
        )

    print(
        format_table(
            [
                "Delta",
                "new-fast rounds",
                "colors",
                "new-linear rounds",
                "colors",
                "baseline rounds",
                "colors",
                "new analytic",
                "PR analytic",
            ],
            rows,
            title=f"Rounds vs. Delta on random regular graphs (n = {N})",
        )
    )
    cached = sum(1 for result in results.values() if result.cached)
    print(
        f"\n({len(results)} scenarios via ExperimentRunner; {cached} served from "
        f"the cache at {default_cache_dir()}.)"
    )
    print(
        "\nAs Delta grows the baseline's rounds grow roughly linearly with Delta,"
        " while the new algorithm's grow noticeably more slowly (its cost is"
        " dominated by the constant-size bottom level of the recursion) -- the"
        " qualitative shape of the paper's Table 1; the asymptotic gap widens"
        " further with Delta."
    )

    print()
    engine_sweep()


if __name__ == "__main__":
    main()
