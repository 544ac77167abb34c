"""Vectorized-baseline speedups + offline calibration of the portfolio cost model.

Two jobs in one harness (committed numbers in
``benchmarks/results/portfolio.json`` / ``portfolio_quick.json`` and
``benchmarks/results/portfolio_model.json``):

1. **Baseline kernel speedup.**  The PR 7 tentpole claim: the vectorized
   Luby kernel (``StringSeededDraws`` + CSR conflict scatter) beats the
   per-node batched path by **>= 10x** at ``n = 50,000`` (headline row at
   ``Delta = 64``), with *bit-identical* colorings — asserted on every
   measured pair.  The ``speedup_luby_vectorized_over_legacy`` ratio is
   gated in CI by ``benchmarks/check_regression.py`` at the standard 30%
   tolerance against the committed quick record.

2. **Cost-model calibration.**  The route / rounds coefficients that
   :func:`repro.portfolio.color_graph` / ``color_edges`` decide with are
   measured here — per-line-entry seconds for the direct vs. Lemma 5.2
   routes, and one fitted multiplier per Theorem 4.8 preset's analytic
   round shape.  A full-mode ``REPRO_BENCH_RECORD=1`` run rewrites
   ``portfolio_model.json`` (the record ``CostModel.default()`` loads), and
   the portfolio decisions taken with the fresh model are recorded and
   sanity-asserted: every instance class runs on the process default
   engine, and a tight budget degrades the dense instance's preset.

Run with::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_portfolio.py --benchmark-only -s
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from common_bench import QUICK, print_section, run_once

from repro import graphs
from repro.analysis import format_table
from repro.baselines import luby_vertex_coloring
from repro.core import color_edges as core_color_edges
from repro.local_model import default_engine, kernels
from repro.local_model.fast_network import fast_view
from repro.portfolio import CostModel
from repro.portfolio import color_edges as portfolio_color_edges
from repro.portfolio import color_graph as portfolio_color_graph
from repro.portfolio.cost_model import quality_round_shape
from repro.portfolio.facade import _line_csr_entries

#: (n, degree) Luby speedup instances; the first full-mode row carries the
#: committed >= 10x claim.
LUBY_SIZES = ((2048, 8),) if QUICK else ((50_000, 64), (50_000, 16))
LUBY_SEED = 7
#: The vectorized side is best-of to damp allocation noise; the slow batched
#: side is measured once (its seconds dwarf any jitter).
VEC_REPEATS = 3

#: Instance for route/rounds calibration (Legal-Color runs on L(G)).
CALIBRATION_EDGE = (96, 6) if QUICK else (600, 8)

RESULTS_FILE = "portfolio_quick.json" if QUICK else "portfolio.json"
MODEL_FILE = "portfolio_model.json"


def _entries(n: int, degree: int) -> int:
    return n * degree + n


def _time_luby(network, engine: str):
    started = time.perf_counter()
    result = luby_vertex_coloring(network, seed=0, engine=engine)
    return time.perf_counter() - started, result


def _measure_luby(n: int, degree: int) -> dict:
    """One legacy-vs-vectorized Luby pair, identical colorings asserted."""
    network = graphs.random_regular(n, degree, seed=LUBY_SEED, backend="fast")
    fast = fast_view(network)
    batched_seconds, batched = _time_luby(fast, "batched")
    vectorized_seconds = float("inf")
    for _ in range(VEC_REPEATS):
        seconds, vectorized = _time_luby(fast, "vectorized")
        vectorized_seconds = min(vectorized_seconds, seconds)
    assert batched.colors == vectorized.colors, (
        f"engines diverged on luby at n={n}, degree={degree}"
    )
    assert np.array_equal(batched.color_column, vectorized.color_column)
    assert vectorized.metrics.fallback_phase_names == []
    return {
        "n": n,
        "degree": degree,
        "csr_entries": _entries(n, degree),
        "rounds": int(vectorized.metrics.rounds),
        "seconds": {
            "luby_batched": round(batched_seconds, 4),
            "luby_vectorized": round(vectorized_seconds, 4),
        },
        "speedup_luby_vectorized_over_legacy": round(
            batched_seconds / max(vectorized_seconds, 1e-9), 2
        ),
        "identical_outputs": True,
    }


def _calibrate() -> dict:
    """Measure the CostModel coefficients (see repro.portfolio.cost_model)."""
    # --- route: direct vs Lemma 5.2 simulation seconds per line entry ---- #
    edge_n, edge_degree = CALIBRATION_EDGE
    edge_net = graphs.random_regular(edge_n, edge_degree, seed=LUBY_SEED, backend="fast")
    line_entries = _line_csr_entries(fast_view(edge_net))
    route_us = {}
    for route in ("direct", "simulation"):
        best = float("inf")
        for _ in range(VEC_REPEATS):
            started = time.perf_counter()
            core_color_edges(edge_net, quality="linear", route=route, engine="vectorized")
            best = min(best, time.perf_counter() - started)
        route_us[route] = best / line_entries * 1e6

    # --- rounds: fitted multiplier per Theorem 4.8 preset shape ---------- #
    delta_line = max(2, 2 * edge_degree - 2)
    rounds_fit = {}
    for quality in ("linear", "subpolynomial", "superlinear"):
        result = core_color_edges(
            edge_net, quality=quality, route="direct", engine="vectorized"
        )
        shape = quality_round_shape(quality, delta_line, edge_n)
        rounds_fit[quality] = {
            "coeff": round(result.metrics.rounds / shape, 3),
            "const": 0.0,
        }

    return {
        "route": {
            "direct_us_per_line_entry": round(route_us["direct"], 4),
            "simulation_us_per_line_entry": round(route_us["simulation"], 4),
        },
        "rounds": rounds_fit,
        "calibration": {
            "kernel_backend": kernels.backend_name(),
            "kernel_threads": kernels.get_num_threads(),
            "edge_instance": {"n": edge_n, "degree": edge_degree,
                              "line_csr_entries": line_entries},
        },
    }


def _pin_decisions(model: CostModel) -> list:
    """Run the facade on three instance classes and record what it picked."""
    pins = []

    small = graphs.random_regular(32, 4, seed=1, backend="fast")
    result = portfolio_color_edges(small, cost_model=model)
    pins.append({
        "instance": "small-regular(n=32, Delta=4)",
        "entry_point": "color_edges",
        "engine": result.decision.engine,
        "quality": result.decision.quality,
        "route": result.decision.route,
        "is_default": result.decision.is_default(),
    })

    large_n, large_degree = (4096, 8) if QUICK else (20_000, 8)
    large = graphs.random_regular(large_n, large_degree, seed=2, backend="fast")
    result = portfolio_color_graph(large, cost_model=model, seed=1)
    pins.append({
        "instance": f"large-regular(n={large_n}, Delta={large_degree})",
        "entry_point": "color_graph",
        "engine": result.decision.engine,
        "quality": result.decision.quality,
        "route": result.decision.route,
        "is_default": result.decision.is_default(),
    })
    assert result.decision.is_default(), (
        "the large instance class must run on the default engine: "
        f"{result.decision.reasons['engine']}"
    )

    dense = graphs.complete_graph(48, backend="fast")
    result = portfolio_color_edges(dense, cost_model=model, budget=40.0)
    pins.append({
        "instance": "dense-complete(n=48, Delta=47)",
        "entry_point": "color_edges",
        "engine": result.decision.engine,
        "quality": result.decision.quality,
        "route": result.decision.route,
        "budget": 40.0,
        "is_default": result.decision.is_default(),
    })
    assert result.decision.quality == "superlinear", (
        "a tight round budget on a dense instance must degrade the preset: "
        f"{result.decision.reasons['quality']}"
    )
    assert all(pin["engine"] == default_engine() for pin in pins), pins
    return pins


def test_portfolio(benchmark):
    print_section(
        "Vectorized baseline kernels + portfolio cost-model calibration"
    )
    luby_rows = [_measure_luby(n, degree) for n, degree in LUBY_SIZES]
    print(
        format_table(
            ["n", "Delta", "CSR entries", "rounds", "batched (s)",
             "vectorized (s)", "speedup"],
            [
                [row["n"], row["degree"], row["csr_entries"], row["rounds"],
                 row["seconds"]["luby_batched"],
                 row["seconds"]["luby_vectorized"],
                 row["speedup_luby_vectorized_over_legacy"]]
                for row in luby_rows
            ],
        )
    )
    print("\nBit-identical colorings on every measured pair; zero fallbacks.")

    if not QUICK:
        headline = luby_rows[0]
        assert headline["speedup_luby_vectorized_over_legacy"] >= 10.0, (
            "vectorized Luby fell below the committed 10x at "
            f"n={headline['n']}, Delta={headline['degree']}"
        )

    model_data = _calibrate()
    model = CostModel.from_mapping(model_data, source="fresh-calibration")
    print_section("Calibrated cost model")
    print(json.dumps({k: model_data[k] for k in ("route", "rounds")}, indent=2))

    decisions = _pin_decisions(model)
    print_section("Portfolio decisions with the fresh model")
    for pin in decisions:
        print(
            f"  {pin['instance']:<40} -> engine={pin['engine']}, "
            f"quality={pin['quality']}, route={pin['route']}"
            + ("  [non-default]" if not pin["is_default"] else "")
        )

    if os.environ.get("REPRO_BENCH_RECORD"):
        results_dir = Path(__file__).parent / "results"
        results_dir.mkdir(exist_ok=True)
        record = {
            "workload": {
                "summary": "vectorized vs batched Luby kernel + portfolio "
                "cost-model calibration",
                "graph": f"random_regular(n, degree, seed={LUBY_SEED}, "
                "backend='fast')",
            },
            "quick": QUICK,
            "sizes": luby_rows,
            "decisions": decisions,
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        out = results_dir / RESULTS_FILE
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nRecorded results to {out}")
        if not QUICK:
            model_record = dict(model_data)
            model_record["decisions"] = decisions
            model_record["python"] = platform.python_version()
            model_record["platform"] = platform.platform()
            model_out = results_dir / MODEL_FILE
            model_out.write_text(json.dumps(model_record, indent=2) + "\n")
            print(f"Recorded cost model to {model_out}")

    run_once(benchmark, lambda: _measure_luby(*LUBY_SIZES[-1]))
