"""End-to-end coloring benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload edge-rr20k --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and builds nothing beyond what the
library compiles on demand (its OpenMP kernel artifact).  Each step runs in a
process of its own, one at a time:

1. a *prepare* process resolves the kernel backend, so a one-time kernel
   compile never lands inside a timed set-up;
2. ``worker.PROCESSES`` measured processes each time a fresh set-up
   (imports, backend resolution and probe, cost-model load, and for churn the
   base graph and the initial session coloring) and then run an equal share
   of the workload's operations in a closed loop, checking every output
   outside the timed region.

``setup_s`` is the median of the set-up samples; the timing metrics pool the
operations of all processes.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The result, stamped with kernel backend, thread counts,
versions and the portfolio decisions, is also written to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``; ``compare.py``
compares two such files.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / worker.OUT_DIR

#: What one item of ``items_per_s`` is, per workload kind.
ITEM = {"edge": "edges_per_s", "vertex": "vertices_per_s", "churn": "updates_per_s"}


def nearest_rank(values, q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule (no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def end_to_end(kind: str, parts) -> dict:
    """The end-to-end metrics of one run, from its processes' records."""
    ops = [op for part in parts for op in part["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    timed = [op for op in ops if op["ok"] and not op["traced"]]
    seconds = [op["s"] for op in timed] or [float("nan")]
    busy = sum(op["s"] for op in timed)
    quantities = worker.combine_quantities(kind, [part["quantities"] for part in parts])
    return {
        "setup_s": (statistics.median(part["setup_s"] for part in parts), "s"),
        "op_s.p50": (statistics.median(seconds), "s"),
        "items_per_s": (sum(op["items"] for op in timed) / busy if busy else 0.0, "1/s"),
        "rounds": (quantities["rounds"], "count"),
        "palette": (quantities["palette"], "count"),
        "colors_used": (quantities["colors_used"], "count"),
        "max_message_words": (quantities["max_message_words"], "words"),
        "success_frac": (1.0 - failed / attempted if attempted else 0.0, "frac"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    env.setdefault("REPRO_KERNEL_THREADS", nproc)
    env.setdefault("OMP_NUM_THREADS", nproc)
    return env


def run_child(args, extra, timeout: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ] + extra + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stamp_of(parts) -> dict:
    """The processes' common stamp; decisions are the union over processes."""
    stamp = dict(parts[0]["stamp"])
    for part in parts[1:]:
        for key, value in part["stamp"].items():
            if key != "decisions" and value != stamp[key]:
                raise RuntimeError(f"processes disagree on {key}: {stamp[key]!r} vs {value!r}")
    decisions = {tuple(d) for part in parts for d in part["stamp"]["decisions"]}
    stamp["decisions"] = sorted((list(d) for d in decisions), key=str)
    return stamp


def describe(workload: str, kind: str, stamp: dict, parts, metrics: dict) -> str:
    timed = [op for part in parts for op in part["ops"] if op["ok"] and not op["traced"]]
    attempted = sum(len(part["ops"]) for part in parts)
    setups = ", ".join(f"{part['setup_s']:.4f}" for part in parts)
    lines = [
        f"workload {workload}: kernel backend {stamp['kernel_backend']!r} "
        f"({stamp['kernel_backend_reason']}), {stamp['kernel_threads']} kernel threads, "
        f"nproc {stamp['nproc']}, python {stamp['python']}, numpy {stamp['numpy']}",
        "portfolio decisions (algorithm, engine, quality, route): "
        + "; ".join(str(tuple(d)) for d in stamp["decisions"]),
        f"set-up samples (s): {setups}",
        f"{attempted} ops in {len(parts)} processes, {len(timed)} untraced and ok",
    ]
    if timed:
        beyond = samples_beyond(len(timed), 90)
        lines.append(
            f"  op_s.p90 = {nearest_rank([op['s'] for op in timed], 90):.6g} s ({beyond} "
            f"samples beyond it{'' if beyond >= 10 else '; fewer than ten, indicative only'})"
        )
    for error in [e for part in parts for e in part["errors"]]:
        lines.append(f"FAILED op: {error}")
    for name, (value, unit) in metrics.items():
        alias = f" ({ITEM[kind]})" if name == "items_per_s" else ""
        lines.append(f"  {name}{alias} = {value:.6g} {unit}")
    return "\n".join(lines)


def per_layer(workload: str, parts):
    """Per-layer metrics and the per-layer table, merged over the processes."""
    ops = [op for part in parts for op in part["ops"]]
    traced_ops = sum(1 for op in ops if op["traced"])
    # Each process's first op is never traced and pays its warm-up, so the
    # overhead compares the ops after it.
    warm = [op for op in ops if op["ok"] and op["i"] > 0]
    traced = [op["s"] for op in warm if op["traced"]]
    untraced = [op["s"] for op in warm if not op["traced"]]
    totals = worker.merge_totals(part["totals"] for part in parts)
    setup_totals = worker.merge_totals(part["setup_totals"] for part in parts)
    metrics = worker.per_layer_metrics(totals, traced_ops, traced, untraced)
    table = worker.layer_table(workload, totals, setup_totals, traced_ops)
    overhead = metrics["trace.overhead_s"][0]
    exports = [path for part in parts for path in part["exports"]]
    table += (
        f"\ntracing overhead: op_s.p50 traced minus untraced = {overhead:+.6f} s"
        f"\nexports: {', '.join(exports)}"
    )
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small graphs; finishes in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run_child(args, ["--prepare"], timeout=850)
        parts = [
            run_child(args, ["--part", str(part)], timeout=150) for part in range(worker.PROCESSES)
        ]
        stamp = stamp_of(parts)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    kind = worker.WORKLOADS[args.workload]["kind"]
    e2e = end_to_end(kind, parts)
    print(describe(args.workload, kind, stamp, parts, e2e))
    metrics = e2e
    if args.trace:
        metrics, table = per_layer(args.workload, parts)
        print(table)

    attempted = sum(len(part["ops"]) for part in parts)
    failed = sum(1 for part in parts for op in part["ops"] if not op["ok"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "stamp": stamp,
        "setup_samples": [part["setup_s"] for part in parts],
        "ops": [op for part in parts for op in part["ops"]],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
