"""Two execution engines and the fused kernels compared, plus setup cost and a sweep.

Three configurations are timed, under these record labels:

* ``"reference"`` -- the reference scheduler;
* ``"vectorized"`` -- the vectorized engine with its fused kernels switched
  off (``kernels.force_backend(None)``), i.e. the numpy ``vector_run`` path;
* ``"compiled"`` -- the same engine with kernels on (the default whenever a
  kernel backend resolves; the column is skipped when none does).

Five claims are demonstrated here (committed numbers in
``benchmarks/results/engine_speedup.md`` / ``engine_speedup.json``):

1. **Speedup.**  On random regular graphs up to ``n = 1,000,000``, Procedure
   Legal-Color (Theorem 4.8(2) parameters) runs orders of magnitude faster
   on the vectorized engine than on the reference scheduler while producing
   the *identical* coloring and identical metrics (the equivalence suite
   locks this down for the whole algorithm zoo; this benchmark re-checks it
   on the timed instances).  The fused kernels
   (``repro.local_model.kernels``) beat the numpy path by >= 3x at
   ``n >= 100,000`` whenever a kernel backend resolves, again
   bit-identically.  The reference scheduler is only timed at the smallest
   full-mode size; at ``n >= 50,000`` it would take tens of minutes without
   adding information.  A thread-scaling row times the kernels at one
   thread vs. all available threads on the same instance.
2. **Edge coloring at scale.**  End-to-end ``color_edges`` (Theorem 5.5
   direct route: CSR line-graph builder + the Corollary 5.4 edge kernel)
   up to ``|E| >= 10^6`` (``n = 131,072``, ``Delta = 16``; the line graph
   ``L(G)`` has ``|E|`` nodes and ~3 * 10^7 CSR entries).  The vectorized
   runs are asserted to execute with zero reference fallbacks, and the
   vectorized/reference ratio of the quick row is CI-gated like the
   Legal-Color ratios.
3. **Setup at array speed.**  Everything *around* the engines -- workload
   generation, the line graph, verification -- also runs on arrays: the
   array-built generators, the CSR line-graph builder and the vectorized
   verification oracles, timed up to ``n = 131,072`` (``Delta = 16``,
   ``|V(L)| >= 10^6``).  The checks must accept the real coloring and
   reject a planted violation that the dict-scan test oracles also find.
4. **Sweep throughput.**  A 36-scenario sweep (degree x algorithm x seed)
   shards across worker processes via ``ExperimentRunner`` and is served
   entirely from the on-disk cache on the second pass.

Run with::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_engine_speedup.py --benchmark-only -s

``REPRO_BENCH_RECORD=1`` additionally rewrites
``benchmarks/results/engine_speedup.json`` (or ``engine_speedup_quick.json``
under ``REPRO_BENCH_QUICK=1`` -- the committed quick record is the baseline
of the CI perf-regression gate, see ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import graph_oracles
from common_bench import QUICK, bench_runner, print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.core import color_edges, color_vertices
from repro.experiments import GraphSpec, Scenario
from repro.local_model import build_line_graph_fast, kernels
from repro.verification import is_legal_edge_coloring, is_legal_vertex_coloring

SPEEDUP_DEGREE = 32
SPEEDUP_SEED = 3
#: Neighborhood-independence bound passed to Procedure Legal-Color.
SPEEDUP_C = 5

#: The kernel backend that resolved on this machine.  Without one the
#: kernels-on column would just re-time the numpy path, so it is skipped
#: (and the record says why).
KERNEL_BACKEND = kernels.backend_name()


def _with_kernels(configs):
    return configs + ("compiled",) if KERNEL_BACKEND else configs


def _in_config(config: str, run):
    """``run(engine)`` under one timed configuration (see the module docstring)."""
    if config == "reference":
        return run("reference")
    restore = None
    if config == "vectorized":
        restore = kernels.force_backend(None, reason="kernels off for the numpy timing")
    try:
        return run("vectorized")
    finally:
        if restore is not None:
            restore()


#: (n, configurations timed at that size).  The reference scheduler is only
#: timed where it finishes in seconds; kernels on vs. off is the interesting
#: comparison at scale.  Quick mode times the kernel ratio on its own
#: n = 20,000 row rather than at n = 400: at tiny sizes the numpy path's
#: per-round overhead dominates and the compiled/vectorized ratio is large
#: but noisy, which is exactly what a 30%-tolerance CI gate cannot sit on.
SPEEDUP_SIZES = (
    (
        (400, ("reference", "vectorized")),
        (20_000, _with_kernels(("vectorized",))),
    )
    if QUICK
    else (
        (2000, _with_kernels(("reference", "vectorized"))),
        (50_000, _with_kernels(("vectorized",))),
        (100_000, _with_kernels(("vectorized",))),
        (1_000_000, _with_kernels(("vectorized",))),
    )
)

#: Instance for the one-thread vs. all-threads kernel timing (full mode
#: reuses the n = 100,000 Legal-Color workload).
THREAD_SCALING_N = 400 if QUICK else 100_000

#: Edge-coloring scale column: (n, degree, configurations timed).  Degrees
#: are chosen so Delta(L) = 2 (Delta - 1) exceeds the superlinear preset's
#: recursion threshold -- the Corollary 5.4 edge kernel actually executes.
#: The largest full-mode instance has |E| >= 10^6 (the line graph L(G) the
#: pipeline vertex-colors has |E| nodes).  Quick mode skips the kernels-on
#: edge column: at |V(L)| = 1200 the runs take ~10 ms and the
#: compiled/vectorized ratio is too noisy to CI-gate (the n = 20,000
#: Legal-Color row above carries the gated kernel ratio).
EDGE_SIZES = (
    ((200, 12, ("reference", "vectorized")),)
    if QUICK
    else (
        (20_000, 16, _with_kernels(("vectorized",))),
        (131_072, 16, _with_kernels(("vectorized",))),
    )
)

#: Setup-cost column: (n, degree).  Chosen to match the largest EDGE_SIZES
#: instance in full mode so the (expensive) vectorized edge coloring of the
#: graph is computed once and reused for the verification timings.
SETUP_SIZES = ((2048, 12),) if QUICK else ((131_072, 16),)

SWEEP_DEGREES = (4, 6) if QUICK else (4, 6, 8, 12, 16, 22)
SWEEP_SEEDS = (1, 2, 3)
SWEEP_N = 32 if QUICK else 64

RESULTS_FILE = "engine_speedup_quick.json" if QUICK else "engine_speedup.json"

#: Runs faster than this are repeated (best-of, up to _MAX_REPEATS) so the
#: perf-regression gate never compares single ~10 ms samples across noisy CI
#: machines; runs beyond _SINGLE_SHOT_SECONDS stay single-shot.  In the
#: window between the two, at least two samples are taken: a first run that
#: lands just past the threshold can be all warmup (page cache, allocator
#: growth after a multi-minute neighbor), and a single such sample once
#: recorded a 5x-inflated wall time for a 0.35s workload.
_MIN_RELIABLE_SECONDS = 0.5
_SINGLE_SHOT_SECONDS = 10.0
_MAX_REPEATS = 5


def _timed(make_run):
    """Best-of-``_MAX_REPEATS`` timing of ``make_run`` (deterministic runs)."""
    result = None
    best = None
    for attempt in range(_MAX_REPEATS):
        started = time.perf_counter()
        run = make_run()
        elapsed = time.perf_counter() - started
        if result is None:
            result = run  # Deterministic: every repeat produces the same result.
        if best is None or elapsed < best:
            best = elapsed
        if best >= _SINGLE_SHOT_SECONDS:
            break
        if best >= _MIN_RELIABLE_SECONDS and attempt >= 1:
            break
    return result, best


def _top_phases(metrics, k: int = 4) -> dict:
    """The ``k`` most expensive phases of a run, by measured wall seconds."""
    ranked = sorted(metrics.phase_seconds.items(), key=lambda kv: kv[1], reverse=True)
    return {name: round(seconds, 4) for name, seconds in ranked[:k]}


def _timed_legal_color(network, config: str):
    return _timed(
        lambda: _in_config(
            config,
            lambda engine: color_vertices(
                network, c=SPEEDUP_C, quality="superlinear", engine=engine
            ),
        )
    )


def _timed_edge_color(network, config: str):
    return _timed(
        lambda: _in_config(
            config,
            lambda engine: color_edges(
                network, quality="superlinear", route="direct", engine=engine
            ),
        )
    )


def _run_edge_size(n: int, degree: int, configs, edge_runs=None) -> dict:
    """Time end-to-end ``color_edges`` per configuration; verify identical outputs."""
    network = graphs.random_regular(n, degree, seed=SPEEDUP_SEED)
    results = {}
    seconds = {}
    for config in configs:
        results[config], seconds[config] = _timed_edge_color(network, config)
    if edge_runs is not None and "vectorized" in results:
        # Reused by the setup-cost section so the expensive edge coloring of
        # this graph is computed exactly once per benchmark run.
        edge_runs[(n, degree)] = (network, results["vectorized"])

    baseline_config = configs[0]
    baseline = results[baseline_config]
    for config in configs[1:]:
        assert results[config].edge_colors == baseline.edge_colors, (
            f"{config} diverged from {baseline_config} at n={n}"
        )
        assert results[config].metrics.summary() == baseline.metrics.summary()
    if "vectorized" in results:
        # The whole edge-mode pipeline (CSR line-graph builder + Corollary
        # 5.4 kernel + psi-selection + bottom coloring) must stay on the
        # array kernels end to end.
        fallbacks = results["vectorized"].metrics.fallback_phase_names
        assert not fallbacks, f"vectorized edge run fell back at n={n}: {fallbacks}"
        assert len(results["vectorized"].levels) >= 1, (
            "edge instance too small: the Corollary 5.4 recursion never ran"
        )

    row = {
        "n": n,
        "degree": degree,
        "edges": network.num_edges,
        "seconds": {config: round(seconds[config], 4) for config in configs},
        "rounds": baseline.metrics.rounds,
        "palette": baseline.palette,
        "levels": len(baseline.levels),
        "top_phase_seconds": {
            config: _top_phases(results[config].metrics) for config in configs
        },
        "identical_outputs": True,
    }
    if "reference" in seconds and "vectorized" in seconds:
        row["speedup_vectorized_over_reference"] = round(
            seconds["reference"] / max(seconds["vectorized"], 1e-9), 2
        )
    if "vectorized" in seconds and "compiled" in seconds:
        row["speedup_compiled_over_vectorized"] = round(
            seconds["vectorized"] / max(seconds["compiled"], 1e-9), 2
        )
    return row


def _run_setup_size(n: int, degree: int, edge_runs) -> dict:
    """Time (graph build + line graph + verification) on the arrays.

    The vertex route times the generator and the vertex-coloring check; the
    line route adds the CSR line-graph build and the edge-coloring check.
    Each check must accept the computed coloring and reject a planted
    violation, and the dict-scan oracles of ``tests/graph_oracles.py`` must
    name the same planted offenders.
    """
    fast_net, fast_build = _timed(lambda: graphs.random_regular(n, degree, seed=SPEEDUP_SEED))
    coloring = color_vertices(fast_net, c=SPEEDUP_C, quality="superlinear", engine="vectorized")
    fast_ok, fast_verify = _timed(lambda: is_legal_vertex_coloring(fast_net, coloring.color_column))
    assert fast_ok

    planted_column = coloring.color_column.copy()
    planted_column[int(fast_net.indices_np[0])] = planted_column[0]
    planted_mapping = dict(zip(fast_net.order, planted_column.tolist()))
    assert not is_legal_vertex_coloring(fast_net, planted_column)
    assert graph_oracles.vertex_violation(fast_net, planted_mapping) is not None

    # ------------------------------------------------------------------ #
    # Line-graph route.
    # ------------------------------------------------------------------ #
    if (n, degree) in edge_runs:
        _, edge_result = edge_runs[(n, degree)]
    else:
        edge_result = color_edges(
            fast_net, quality="superlinear", route="direct", engine="vectorized"
        )
    line_fast, line_fast_build = _timed(lambda: build_line_graph_fast(fast_net))
    edge_fast_ok, edge_fast_verify = _timed(
        lambda: is_legal_edge_coloring(fast_net, edge_result.color_column)
    )
    assert edge_fast_ok

    # Planted edge violation: the first two canonical edges share their
    # lower endpoint on these graphs (degree >= 2), so equal colors clash.
    edges = graph_oracles.edges(fast_net)
    assert edges[0][0] == edges[1][0]
    planted_edge_column = edge_result.color_column.copy()
    planted_edge_column[1] = planted_edge_column[0]
    planted_edge_mapping = dict(zip(edges, planted_edge_column.tolist()))
    assert not is_legal_edge_coloring(fast_net, planted_edge_column)
    assert graph_oracles.edge_violation(fast_net, planted_edge_mapping) is not None

    seconds = {
        "fast_vertex": round(fast_build + fast_verify, 4),
        "fast_line": round(fast_build + line_fast_build + edge_fast_verify, 4),
    }
    return {
        "n": n,
        "degree": degree,
        "edges": fast_net.num_edges,
        "line_nodes": line_fast.num_nodes,
        "seconds": seconds,
        "components": {
            "fast_build": round(fast_build, 4),
            "fast_vertex_verify": round(fast_verify, 4),
            "fast_line_build": round(line_fast_build, 4),
            "fast_edge_verify": round(edge_fast_verify, 4),
        },
        "identical_outputs": True,
    }


def _sweep_scenarios():
    scenarios = []
    for degree in SWEEP_DEGREES:
        for seed in SWEEP_SEEDS:
            spec = GraphSpec("random_regular", n=SWEEP_N, degree=degree, seed=seed)
            scenarios.append(
                Scenario.make(
                    name=f"legal-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="legal_coloring",
                    params={"c": degree, "quality": "superlinear"},
                )
            )
            scenarios.append(
                Scenario.make(
                    name=f"edge-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="edge_coloring",
                    params={"quality": "superlinear", "route": "direct"},
                )
            )
    return scenarios


def _run_size(n: int, configs) -> dict:
    """Time every configuration on one instance; verify bit-identical outputs.

    Generation is untimed; the within-row ratios are what the record (and
    the CI gate) compare.
    """
    network = graphs.random_regular(n, SPEEDUP_DEGREE, seed=SPEEDUP_SEED)
    results = {}
    seconds = {}
    for config in configs:
        results[config], seconds[config] = _timed_legal_color(network, config)

    baseline_config = configs[0]
    baseline = results[baseline_config]
    for config in configs[1:]:
        assert results[config].colors == baseline.colors, (
            f"{config} diverged from {baseline_config} at n={n}"
        )
        assert results[config].metrics.summary() == baseline.metrics.summary()
    if "vectorized" in results:
        # The whole Legal-Color pipeline must run on the array kernels: a
        # single reference fallback would silently hand the wall-clock back
        # to per-node Python.
        fallbacks = results["vectorized"].metrics.fallback_phase_names
        assert not fallbacks, f"vectorized run fell back at n={n}: {fallbacks}"

    row = {
        "n": n,
        "degree": SPEEDUP_DEGREE,
        "seconds": {config: round(seconds[config], 4) for config in configs},
        "rounds": baseline.metrics.rounds,
        "messages": baseline.metrics.messages,
        "palette": baseline.palette,
        "top_phase_seconds": {
            config: _top_phases(results[config].metrics) for config in configs
        },
        "identical_outputs": True,
    }
    if "reference" in seconds and "vectorized" in seconds:
        # End-to-end ratio of the fully vectorized numpy pipeline (kernels
        # plus driver-level marshalling) -- the quantity the columnar state
        # store attacks; gated by benchmarks/check_regression.py.
        row["speedup_vectorized_over_reference"] = round(
            seconds["reference"] / max(seconds["vectorized"], 1e-9), 2
        )
    if "vectorized" in seconds and "compiled" in seconds:
        # End-to-end ratio of the fused kernels over the numpy path (both on
        # the vectorized engine) -- gated by benchmarks/check_regression.py.
        row["speedup_compiled_over_vectorized"] = round(
            seconds["vectorized"] / max(seconds["compiled"], 1e-9), 2
        )
    return row


def _run_thread_scaling() -> dict:
    """Time the fused kernels at one thread vs. all available.

    Same instance, same backend, identical outputs asserted across thread
    counts (the kernels are written so concurrent recolorings never race on
    a decision input).  On a single-core machine both timings use one
    thread and the ratio is ~1.0 -- the record keeps ``available_threads``
    next to the ratio so the reader can tell "no scaling headroom" from
    "scaling regression".
    """
    network = graphs.random_regular(THREAD_SCALING_N, SPEEDUP_DEGREE, seed=SPEEDUP_SEED)
    available = kernels.get_num_threads()
    try:
        kernels.set_num_threads(1)
        single_result, single_seconds = _timed_legal_color(network, "compiled")
        kernels.set_num_threads(available)
        multi_result, multi_seconds = _timed_legal_color(network, "compiled")
    finally:
        kernels.set_num_threads(available)
    assert single_result.colors == multi_result.colors, (
        "kernel output depends on the kernel thread count"
    )
    assert single_result.metrics.summary() == multi_result.metrics.summary()
    return {
        "n": THREAD_SCALING_N,
        "degree": SPEEDUP_DEGREE,
        "backend": KERNEL_BACKEND,
        "available_threads": available,
        "seconds": {
            "one_thread": round(single_seconds, 4),
            "all_threads": round(multi_seconds, 4),
        },
        "thread_scaling": round(single_seconds / max(multi_seconds, 1e-9), 2),
        "identical_outputs": True,
    }


def test_engine_speedup(benchmark):
    rows = []
    backend_note = (
        f"kernel backend '{KERNEL_BACKEND}', {kernels.get_num_threads()} thread(s)"
        if KERNEL_BACKEND
        else f"no kernel backend ({kernels.backend_reason()}); kernels-on column skipped"
    )
    print_section(
        "Reference vs. vectorized, kernels off and on -- Procedure Legal-Color "
        f"(Delta = {SPEEDUP_DEGREE}, c = {SPEEDUP_C}; {backend_note})"
    )
    for n, configs in SPEEDUP_SIZES:
        row = _run_size(n, configs)
        rows.append(row)

    print(
        format_table(
            [
                "n",
                "reference (s)",
                "numpy (s)",
                "kernels (s)",
                "numpy/ref",
                "kernels/numpy",
                "rounds",
                "palette",
            ],
            [
                [
                    row["n"],
                    row["seconds"].get("reference", "-"),
                    row["seconds"].get("vectorized", "-"),
                    row["seconds"].get("compiled", "-"),
                    row.get("speedup_vectorized_over_reference", "-"),
                    row.get("speedup_compiled_over_vectorized", "-"),
                    row["rounds"],
                    row["palette"],
                ]
                for row in rows
            ],
        )
    )
    print("\nIdentical colorings and metrics across all timed configurations.")

    # Per-phase wall time at the largest size: where the fused kernels
    # actually win (satellite of the phase_seconds instrumentation).
    largest = rows[-1]
    phase_engines = [e for e in ("vectorized", "compiled") if e in largest["seconds"]]
    phase_names = sorted(
        {name for engine in phase_engines for name in largest["top_phase_seconds"][engine]}
    )
    if phase_names:
        print(f"\nMost expensive phases at n={largest['n']} (wall seconds):")
        print(
            format_table(
                ["phase"] + [f"{engine} (s)" for engine in phase_engines],
                [
                    [name]
                    + [
                        largest["top_phase_seconds"][engine].get(name, "-")
                        for engine in phase_engines
                    ]
                    for name in phase_names
                ],
            )
        )

    # The committed record claims >= 3x kernels/numpy at n >= 100,000; keep
    # the in-test bound looser so a loaded box does not flake.
    if not QUICK:
        for row in rows:
            if row["n"] >= 100_000 and "speedup_compiled_over_vectorized" in row:
                speedup = row["speedup_compiled_over_vectorized"]
                assert speedup >= 1.5, (
                    f"fused kernels only {speedup:.2f}x faster at n={row['n']}"
                )

    # ------------------------------------------------------------------ #
    # Thread scaling: fused kernels, one thread vs. all.
    # ------------------------------------------------------------------ #
    thread_row = None
    if KERNEL_BACKEND:
        print_section(
            "Kernel thread scaling -- one kernel thread vs. all "
            f"available (backend '{KERNEL_BACKEND}')"
        )
        thread_row = _run_thread_scaling()
        print(
            format_table(
                [
                    "n",
                    "threads avail",
                    "1 thread (s)",
                    "all threads (s)",
                    "scaling",
                ],
                [
                    [
                        thread_row["n"],
                        thread_row["available_threads"],
                        thread_row["seconds"]["one_thread"],
                        thread_row["seconds"]["all_threads"],
                        thread_row["thread_scaling"],
                    ]
                ],
            )
        )
        print(
            "\nIdentical colorings and metrics across thread counts."
            + (
                "  (Single-core machine: no scaling headroom to measure.)"
                if thread_row["available_threads"] == 1
                else ""
            )
        )

    # ------------------------------------------------------------------ #
    # Edge coloring at scale (Theorem 5.5 direct route on L(G)).
    # ------------------------------------------------------------------ #
    print_section(
        "Edge coloring -- color_edges (Theorem 5.5 direct route, "
        "CSR line-graph builder + Corollary 5.4 kernel)"
    )
    edge_rows = []
    edge_runs = {}
    for n, degree, configs in EDGE_SIZES:
        edge_rows.append(_run_edge_size(n, degree, configs, edge_runs))

    print(
        format_table(
            [
                "n",
                "Delta",
                "|E| = |V(L)|",
                "reference (s)",
                "numpy (s)",
                "kernels (s)",
                "numpy/ref",
                "kernels/numpy",
                "levels",
                "palette",
            ],
            [
                [
                    row["n"],
                    row["degree"],
                    row["edges"],
                    row["seconds"].get("reference", "-"),
                    row["seconds"].get("vectorized", "-"),
                    row["seconds"].get("compiled", "-"),
                    row.get("speedup_vectorized_over_reference", "-"),
                    row.get("speedup_compiled_over_vectorized", "-"),
                    row["levels"],
                    row["palette"],
                ]
                for row in edge_rows
            ],
        )
    )
    print(
        "\nIdentical edge colorings and metrics across all timed configurations; "
        "zero reference fallbacks on every vectorized run"
        + (", no kernel lost on any kernels-on run." if KERNEL_BACKEND else ".")
    )

    # ------------------------------------------------------------------ #
    # Setup cost: generation + line graph + verification.
    # ------------------------------------------------------------------ #
    print_section("Setup cost -- graph build + CSR line graph + array verification")
    setup_rows = [_run_setup_size(n, degree, edge_runs) for n, degree in SETUP_SIZES]
    print(
        format_table(
            ["n", "Delta", "vertex route (s)", "line route (s)"],
            [
                [
                    row["n"],
                    row["degree"],
                    row["seconds"]["fast_vertex"],
                    row["seconds"]["fast_line"],
                ]
                for row in setup_rows
            ],
        )
    )
    print(
        "\nThe array checks accept the computed colorings and reject a planted "
        "violation the dict-scan oracles also find."
    )

    # ------------------------------------------------------------------ #
    # Parallel sweep with caching.
    # ------------------------------------------------------------------ #
    scenarios = _sweep_scenarios()
    assert len(scenarios) >= 32 or QUICK

    runner = bench_runner()
    sweep_started = time.perf_counter()
    first_pass = runner.run(scenarios)
    first_seconds = time.perf_counter() - sweep_started

    sweep_started = time.perf_counter()
    second_pass = runner.run(scenarios)
    second_seconds = time.perf_counter() - sweep_started

    assert all(result.verified for result in first_pass)
    assert all(result.cached for result in second_pass)
    assert [r.coloring_digest for r in first_pass] == [
        r.coloring_digest for r in second_pass
    ]

    fresh = sum(1 for result in first_pass if not result.cached)
    print(
        f"\nSweep: {len(scenarios)} scenarios, {fresh} executed fresh "
        f"({first_seconds:.2f}s), second pass fully cached ({second_seconds:.3f}s)."
    )

    if os.environ.get("REPRO_BENCH_RECORD"):
        record = {
            "workload": {
                "algorithm": "legal_coloring (Theorem 4.8(2) parameters)",
                "graph": (
                    f"random_regular(n, degree={SPEEDUP_DEGREE}, "
                    f"seed={SPEEDUP_SEED})"
                ),
                "c": SPEEDUP_C,
            },
            "edge_workload": {
                "algorithm": "color_edges (Theorem 5.5 direct route)",
                "graph": f"random_regular(n, degree, seed={SPEEDUP_SEED})",
                "quality": "superlinear",
            },
            "setup_workload": {
                "summary": (
                    "graph build + line graph + coloring verification: "
                    "array build -> CSR line graph -> CSR oracles"
                ),
                "graph": f"random_regular(n, degree, seed={SPEEDUP_SEED})",
            },
            "configs": {
                "reference": "reference scheduler",
                "vectorized": "vectorized engine, kernels off (numpy)",
                "compiled": "vectorized engine, kernels on",
            },
            "quick": QUICK,
            "kernel_backend": KERNEL_BACKEND,
            "kernel_threads": kernels.get_num_threads() if KERNEL_BACKEND else 0,
            "sizes": rows,
            "edge_sizes": edge_rows,
            "setup_sizes": setup_rows,
            "thread_scaling": thread_row,
            "sweep": {
                "scenarios": len(scenarios),
                "fresh_seconds": round(first_seconds, 3),
                "cached_seconds": round(second_seconds, 4),
            },
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        out = Path(__file__).parent / "results" / RESULTS_FILE
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nRecorded results to {out}")

    # Time the vectorized run once more under pytest-benchmark.
    timed_n = SPEEDUP_SIZES[0][0]
    timed_network = graphs.random_regular(timed_n, SPEEDUP_DEGREE, seed=SPEEDUP_SEED)
    run_once(benchmark, lambda: _timed_legal_color(timed_network, "vectorized"))
