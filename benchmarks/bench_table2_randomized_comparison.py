"""Table 2 reproduction: the new deterministic algorithm vs. randomized baselines.

Table 2 covers the small-Delta regime (omega(log* n) <= Delta <= log^{1-delta} n):
previous work is either Panconesi-Rizzi (deterministic, (2 Delta - 1) colors,
O(Delta) + log* n rounds) or Schneider-Wattenhofer [29] (randomized,
(2 Delta - 1) colors, O(sqrt(log n)) rounds); the new deterministic algorithm
achieves O(Delta^{1+eps}) colors in O(log Delta) + log* n rounds and therefore
outperforms even the randomized algorithms in this range.

The harness measures our implementation of the new algorithm and a Luby-style
randomized baseline, and prints the analytic [29] curve alongside.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from common_bench import QUICK, print_section, regular_workload, run_once

from repro import graphs
from repro.analysis import (
    Series,
    format_table,
    rounds_new_superlinear,
    rounds_panconesi_rizzi,
    rounds_schneider_wattenhofer,
)
from repro.baselines import luby_edge_coloring, panconesi_rizzi_edge_coloring
from repro.core import color_edges
from repro.verification import assert_legal_edge_coloring

#: Small-Delta regime of Table 2.
SMALL_DEGREES = (3, 4, 6, 8)

#: (n, degree) of the engine-ratio gate row committed with the record.  The
#: randomized Luby baseline needs a few thousand line-graph nodes before the
#: vectorized kernel's fixed setup cost amortizes, so the gate row runs at a
#: larger size than the Table 2 sweep itself.
GATE_SIZE = (1024, 8) if QUICK else (2048, 8)
#: Best-of counts of the gate row: the quick reference run is short enough
#: to be noisy, so it is repeated too.
REFERENCE_REPEATS = 3 if QUICK else 1
VECTORIZED_REPEATS = 3

RESULTS_FILE = "table2_quick.json" if QUICK else "table2.json"


def _measure_gate() -> dict:
    """Reference-vs-vectorized ratio for the Luby edge baseline."""
    n, degree = GATE_SIZE
    network = graphs.random_regular(n, degree, seed=5)
    reference_seconds = float("inf")
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        reference = luby_edge_coloring(network, seed=degree, engine="reference")
        reference_seconds = min(reference_seconds, time.perf_counter() - started)
    vectorized_seconds = float("inf")
    for _ in range(VECTORIZED_REPEATS):
        started = time.perf_counter()
        vectorized = luby_edge_coloring(network, seed=degree, engine="vectorized")
        vectorized_seconds = min(vectorized_seconds, time.perf_counter() - started)
    assert reference.edge_colors == vectorized.edge_colors
    assert vectorized.metrics.fallback_phase_names == []
    return {
        "n": n,
        "degree": degree,
        "seconds": {
            "luby_edge_reference": round(reference_seconds, 4),
            "luby_edge_vectorized": round(vectorized_seconds, 4),
        },
        "speedup_luby_edge_vectorized_over_reference": round(
            reference_seconds / max(vectorized_seconds, 1e-9), 2
        ),
        "identical_outputs": True,
    }


def _record(rows, gate_row, headers) -> None:
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": {
            "summary": "Table 2: small-Delta regime, randomized baselines vs "
            "the new deterministic algorithm (vectorized engine)",
            "degrees": list(SMALL_DEGREES),
        },
        "quick": QUICK,
        "sizes": [gate_row],
        "table": {
            "headers": headers,
            "rows": rows,
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    out = results_dir / RESULTS_FILE
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nRecorded results to {out}")


def _sweep():
    rows = []
    new_rounds = Series("new deterministic")
    luby_rounds = Series("randomized baseline")
    for degree in SMALL_DEGREES:
        network = regular_workload(degree, seed=100)
        n = network.num_nodes

        fast = color_edges(
            network, quality="superlinear", route="direct", engine="vectorized"
        )
        baseline = panconesi_rizzi_edge_coloring(network, engine="vectorized")
        randomized = luby_edge_coloring(network, seed=degree, engine="vectorized")
        for result in (fast, baseline, randomized):
            assert_legal_edge_coloring(network, result.edge_colors)

        new_rounds.add(degree, fast.metrics.rounds)
        luby_rounds.add(degree, randomized.metrics.rounds)
        rows.append(
            [
                degree,
                baseline.colors_used,
                baseline.metrics.rounds,
                randomized.colors_used,
                randomized.metrics.rounds,
                round(rounds_schneider_wattenhofer(degree, n), 1),
                fast.colors_used,
                fast.metrics.rounds,
                round(rounds_new_superlinear(degree, n), 1),
                round(rounds_panconesi_rizzi(degree, n), 1),
            ]
        )
    return rows, new_rounds, luby_rounds


HEADERS = [
    "Delta",
    "PR colors",
    "PR rounds",
    "rand colors",
    "rand rounds",
    "[29] analytic",
    "new colors",
    "new rounds",
    "new analytic",
    "[24] analytic",
]


def test_table2_randomized_comparison(benchmark):
    rows, new_rounds, luby_rounds = _sweep()

    print_section(
        "Table 2 -- small-Delta regime: randomized baselines vs. the new deterministic algorithm"
    )
    print(format_table(HEADERS, rows))
    print(
        "\nNote: the randomized baseline uses fewer colors (2 Delta - 1) but relies on"
        " randomness; the new algorithm is deterministic and its round count grows only"
        " logarithmically with Delta, which is the Table 2 comparison point."
    )

    # Determinism is the point of the comparison: two runs of the new
    # algorithm produce identical colorings, which no randomized baseline
    # guarantees.
    network = regular_workload(SMALL_DEGREES[-1], seed=100)
    first = color_edges(network, quality="superlinear", route="direct")
    second = color_edges(network, quality="superlinear", route="direct")
    assert first.edge_colors == second.edge_colors

    gate_row = _measure_gate()
    print(
        f"\nEngine gate at n={gate_row['n']}, Delta={gate_row['degree']}: "
        f"vectorized Luby edge baseline is "
        f"{gate_row['speedup_luby_edge_vectorized_over_reference']}x the reference "
        "path (identical colorings)."
    )

    if os.environ.get("REPRO_BENCH_RECORD"):
        _record(rows, gate_row, HEADERS)

    run_once(
        benchmark,
        lambda: color_edges(
            network, quality="superlinear", route="direct", engine="vectorized"
        ),
    )
