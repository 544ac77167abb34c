"""One benchmark process: set up one workload, run its operations, check them.

``run.py`` starts this script ``PROCESSES`` times per run, one after
another.  Each process pays imports, kernel-backend resolution and
cost-model load afresh, times that set-up, and runs its share of the
operations.  The last line of its standard output is one JSON object;
``run.py`` merges the processes' objects into the benchmark's metrics.

Every operation is timed around the call a user makes and nothing else.
Batch drawing (churn), the outside-in checks and the churn session's
``verify()`` run outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import tracing

#: A run is split over this many processes, one after another.  Each times
#: its own set-up (``setup_s`` is their median) and runs an equal share of
#: the operations, so one process's luck with the machine is a third of a run.
#: Static workloads cycle over as many graph seeds, and process ``p`` starts
#: at seed ``p``: every seed runs, so the worst-case paper quantities of a
#: run are a fixed function of the workload seed.
PROCESSES = 3

#: The churn schedule has this many batches per requested second (it must be
#: fixed for the summed round count to repeat exactly), and at least enough
#: batches for ten samples beyond p90.
CHURN_BATCHES_PER_SECOND = 12
CHURN_MIN_BATCHES = 110

#: Where the traced run writes its exports, relative to the checkout root.
OUT_DIR = ".perfbench"

WORKLOADS: Dict[str, dict] = {
    "edge-rr20k": {"kind": "edge", "n": 20_000, "degree": 16, "smoke_n": 1_000},
    "vertex-geo100k": {
        "kind": "vertex",
        "n": 100_000,
        "mean_degree": 24,
        "c": 5,
        "smoke_n": 5_000,
    },
    "churn-rr50k": {
        "kind": "churn",
        "n": 50_000,
        "degree": 8,
        "c": 8,
        "churn": 0.01,
        "smoke_n": 4_000,
    },
}

#: Engine phase families reported by the traced run (phase name up to "[").
PHASE_FAMILIES = (
    "psi-selection",
    "linial",
    "kw-reduce",
    "reduce",
    "defective-step",
    "kuhn-defective-edge",
)


def derive_seed(seed: int, *path) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    text = ":".join(str(part) for part in (seed,) + path)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def phase_family(name: str) -> str:
    family = name.split("[", 1)[0]
    return family if family in PHASE_FAMILIES else "other"


# --------------------------------------------------------------------------- #
# Outside-in checks
# --------------------------------------------------------------------------- #


def coloring_problems(column, palette: int) -> List[str]:
    """``colors_used <= max color <= palette`` on a dense color column."""
    import numpy as np

    if len(column) == 0:
        return []
    used = int(np.unique(column).size)
    top = int(column.max())
    if not used <= top <= palette:
        return [f"colors_used {used} <= max color {top} <= palette {palette} fails"]
    return []


def metrics_problems(metrics, backend: Optional[str], degraded_from) -> List[str]:
    """No batched fallback, no compiled fallback with a backend, no degradation."""
    problems = []
    if metrics.fallback_phase_names:
        problems.append(f"batched fallback: {metrics.fallback_phase_names}")
    if backend is not None and metrics.compiled_fallback_phase_names:
        problems.append(f"compiled fallback: {metrics.compiled_fallback_phase_names}")
    if degraded_from:
        problems.append(f"degraded from {list(degraded_from)}")
    return problems


@dataclass
class Tally:
    """Operations attempted and failed; an op fails by raising or by a check."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems))
        return not problems


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class StaticWorkload:
    """Generate a graph, color it through the portfolio, verify: one op."""

    def __init__(self, spec: dict, seed: int, smoke: bool, part: int) -> None:
        self.spec = spec
        self.seed = seed
        self.part = part
        self.n = spec["smoke_n"] if smoke else spec["n"]
        self.worst: Dict[str, int] = {}
        self.by_graph: Dict[int, dict] = {}
        self.decisions = set()

    def setup(self) -> None:
        import repro
        from repro import graphs, verification
        from repro.local_model import kernels
        from repro.portfolio import CostModel

        self.repro, self.graphs, self.verification = repro, graphs, verification
        self.backend = kernels.backend_name()
        CostModel.default()

    def prepare(self, index: int) -> int:
        return derive_seed(self.seed, "graph", (self.part + index) % PROCESSES)

    def run(self, graph_seed: int):
        graphs, spec = self.graphs, self.spec
        if spec["kind"] == "edge":
            g = graphs.random_regular(self.n, spec["degree"], seed=graph_seed, backend="fast")
            result = self.repro.color_edges(g)
            self.verification.assert_legal_edge_coloring(g, result.color_column)
        else:
            radius = math.sqrt(spec["mean_degree"] / (math.pi * self.n))
            g = graphs.random_geometric(self.n, radius, seed=graph_seed, backend="fast")
            result = self.repro.color_graph(g, c=spec["c"])
            self.verification.assert_legal_vertex_coloring(g, result.color_column)
        return g, result

    def check(self, graph_seed: int, outcome):
        import numpy as np

        g, result = outcome
        metrics, decision = result.metrics, result.decision
        column = result.color_column
        quantities = {
            "rounds": metrics.rounds,
            "palette": result.palette,
            "colors_used": int(np.unique(column).size),
            "max_message_words": metrics.max_message_words,
        }
        problems = coloring_problems(column, result.palette)
        problems += metrics_problems(metrics, self.backend, decision.degraded_from)
        seen = self.by_graph.setdefault(graph_seed, quantities)
        if seen != quantities:
            problems.append(f"graph seed {graph_seed} gave {quantities}, earlier {seen}")
        for key, value in quantities.items():
            self.worst[key] = max(self.worst.get(key, value), value)
        self.decisions.add(
            (decision.algorithm, decision.engine, decision.quality, decision.route)
        )
        items = g.num_edges if self.spec["kind"] == "edge" else g.num_nodes
        return items, problems

    def quantities(self) -> Dict[str, int]:
        return dict(self.worst)


class ChurnWorkload:
    """One ``DynamicColoring.apply_updates`` batch of 1% churn: one op."""

    def __init__(self, spec: dict, seed: int, smoke: bool, part: int) -> None:
        self.spec = spec
        self.seed = seed
        self.part = part
        self.n = spec["smoke_n"] if smoke else spec["n"]

    def setup(self) -> None:
        import inspect

        import numpy as np
        from repro import DynamicColoring, graphs
        from repro.local_model import kernels
        from repro.local_model.engine import resolve_engine
        from repro.portfolio import CostModel

        self.np = np
        self.backend = kernels.backend_name()
        CostModel.default()
        g = graphs.random_regular(
            self.n, self.spec["degree"], seed=derive_seed(self.seed, "graph", 0), backend="fast"
        )
        self.session = DynamicColoring(g, c=self.spec["c"])
        self.batch_size = max(1, round(self.spec["churn"] * g.num_edges))
        self.rng = np.random.default_rng(derive_seed(self.seed, "batches", self.part))
        metrics = self.session.metrics
        self.rounds_at_start = metrics.rounds
        self.compiled_seen = len(metrics.compiled_fallback_phase_names)
        self.degraded_seen = len(metrics.degraded_engine_names)
        quality = inspect.signature(DynamicColoring).parameters["quality"].default
        self.decisions = {("legal-color", resolve_engine(None), quality, None)}

    def prepare(self, index: int):
        """Draw one batch: removals of existing edges plus random insertions."""
        np, rng, fast = self.np, self.rng, self.session.network
        n, k = fast.num_nodes, self.batch_size
        rows = np.repeat(np.arange(n, dtype=np.int64), fast.degrees_np)
        cols = fast.indices_np
        canonical = rows < cols
        pick = rng.choice(int(canonical.sum()), size=k, replace=False)
        removed = (rows[canonical][pick], cols[canonical][pick])
        add_u = rng.integers(0, n, size=k, dtype=np.int64)
        add_v = (add_u + 1 + rng.integers(0, n - 1, size=k, dtype=np.int64)) % n
        return (add_u, add_v), removed

    def run(self, batch):
        added, removed = batch
        return self.session.apply_updates(added, removed)

    def check(self, batch, report):
        session = self.session
        problems = []
        try:
            session.verify()
        except Exception as exc:  # the oracle's verdict is the check
            problems.append(f"verify: {exc}")
        problems += coloring_problems(session.color_column, session.palette_bound)
        if report.fallback_phases:
            problems.append(f"batched fallback: {list(report.fallback_phases)}")
        metrics = session.metrics
        compiled = metrics.compiled_fallback_phase_names[self.compiled_seen:]
        degraded = metrics.degraded_engine_names[self.degraded_seen:]
        self.compiled_seen += len(compiled)
        self.degraded_seen += len(degraded)
        if self.backend is not None and compiled:
            problems.append(f"compiled fallback: {compiled}")
        if degraded:
            problems.append(f"degraded from {degraded}")
        return report.edges_added + report.edges_removed, problems

    def quantities(self) -> Dict[str, int]:
        session = self.session
        return {
            "rounds": session.metrics.rounds - self.rounds_at_start,
            "palette": session.palette_bound,
            "colors_used": int(self.np.unique(session.color_column).size),
            "max_message_words": session.metrics.max_message_words,
        }


def make_workload(name: str, seed: int, smoke: bool, part: int = 0):
    spec = WORKLOADS[name]
    cls = ChurnWorkload if spec["kind"] == "churn" else StaticWorkload
    return cls(spec, seed, smoke, part)


def combine_quantities(kind: str, parts) -> Dict[str, int]:
    """The run's paper quantities from its processes' quantities.

    Static: the worst value over all operations.  Churn: rounds summed over
    all batches; palette, colors used and message size the worst session's.
    """
    combined = {key: max(q[key] for q in parts) for key in parts[0]}
    if kind == "churn":
        combined["rounds"] = sum(q["rounds"] for q in parts)
    return combined


# --------------------------------------------------------------------------- #
# Layer wrappers for the traced run
# --------------------------------------------------------------------------- #


def _entries(net) -> dict:
    return {"entries": len(net.indices)}


def _run_table_attrs(out) -> dict:
    metrics = out[1]
    attrs = {
        "fallbacks": len(metrics.fallback_phase_names)
        + len(metrics.compiled_fallback_phase_names)
    }
    for name, seconds in metrics.phase_seconds.items():
        key = f"phase.{phase_family(name)}.s"
        attrs[key] = attrs.get(key, 0.0) + seconds
    return attrs


def layer_targets() -> List[tracing.Target]:
    """Each layer's public callables, at the module or class they are looked up in."""
    import repro
    import repro.core.edge_coloring as edge_coloring
    import repro.core.legal_coloring as legal_coloring
    import repro.portfolio.facade as facade
    from repro import graphs, verification
    from repro.dynamic import DynamicColoring
    from repro.local_model.batched import BatchedScheduler
    from repro.local_model.compiled import CompiledScheduler
    from repro.local_model.fast_network import FastNetwork
    from repro.local_model.scheduler import Scheduler
    from repro.local_model.vectorized import VectorizedScheduler

    T = tracing.Target
    targets = [
        T(graphs, "random_regular", "graphs.generate"),
        T(graphs, "random_geometric", "graphs.generate"),
        T(FastNetwork, "from_edge_array", "fast_network.from_edge_array", _entries),
        T(FastNetwork, "filtered_by_labels", "fast_network.filtered_by_labels"),
        T(FastNetwork, "with_edge_updates", "fast_network.with_edge_updates"),
        T(FastNetwork, "induced", "fast_network.induced"),
        T(edge_coloring, "build_line_graph_fast", "line_csr.build", _entries),
        T(repro, "color_edges", "portfolio"),
        T(repro, "color_graph", "portfolio"),
        T(facade, "core_color_edges", "core.color_edges"),
        T(
            edge_coloring,
            "run_legal_coloring",
            "core.run_legal_coloring",
            lambda r: {"levels": len(r.levels)},
        ),
        T(
            legal_coloring,
            "run_legal_coloring",
            "core.run_legal_coloring",
            lambda r: {"levels": len(r.levels)},
        ),
        T(verification, "assert_legal_edge_coloring", "verification.assert_legal"),
        T(verification, "assert_legal_vertex_coloring", "verification.assert_legal"),
        T(
            DynamicColoring,
            "apply_updates",
            "dynamic.apply_updates",
            lambda r: {"conflicts": r.conflicts, "repaired_nodes": r.repaired_nodes},
        ),
    ]
    for cls in (Scheduler, BatchedScheduler, VectorizedScheduler, CompiledScheduler):
        if "run_table" in vars(cls):
            targets.append(
                T(cls, "run_table", "engine.run_table", _run_table_attrs, reentrant=False)
            )
    return targets


def merge_totals(parts) -> Dict[str, Dict[str, float]]:
    """Sum per-layer totals (see :func:`tracing.layer_totals`) across processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for totals in parts:
        for name, row in totals.items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged


def per_layer_metrics(totals, traced_ops: int, traced_s, untraced_s) -> Dict[str, tuple]:
    """Per-op means of each layer's self time and counts over the traced ops."""
    import statistics

    ops = max(1, traced_ops)

    def per_op(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0) / ops

    out = {}
    for layer in (
        "graphs.generate",
        "fast_network.from_edge_array",
        "fast_network.filtered_by_labels",
        "fast_network.with_edge_updates",
        "fast_network.induced",
        "line_csr.build",
        "portfolio",
        "core.run_legal_coloring",
        "core.color_edges",
        "engine.run_table",
        "verification.assert_legal",
        "dynamic.apply_updates",
    ):
        out[f"{layer}.self_s"] = (per_op(layer, "self_s"), "s")
    out["fast_network.from_edge_array.entries"] = (
        per_op("fast_network.from_edge_array", "entries"),
        "count",
    )
    out["fast_network.filtered_by_labels.calls"] = (
        per_op("fast_network.filtered_by_labels", "calls"),
        "count",
    )
    out["line_csr.build.entries"] = (per_op("line_csr.build", "entries"), "count")
    out["core.levels"] = (per_op("core.run_legal_coloring", "levels"), "count")
    out["engine.run_table.calls"] = (per_op("engine.run_table", "calls"), "count")
    for family in PHASE_FAMILIES + ("other",):
        out[f"engine.phase.{family}.s"] = (per_op("engine.run_table", f"phase.{family}.s"), "s")
    out["engine.fallbacks"] = (per_op("engine.run_table", "fallbacks"), "count")
    conflicts = per_op("dynamic.apply_updates", "conflicts")
    repaired = per_op("dynamic.apply_updates", "repaired_nodes")
    out["dynamic.conflicts"] = (conflicts, "count")
    out["dynamic.repaired_nodes"] = (repaired, "count")
    out["dynamic.repaired_per_conflict"] = (repaired / conflicts if conflicts else 0.0, "ratio")
    out["other_s"] = (per_op(tracing.ROOT, "self_s"), "s")
    out["trace.op_s.mean"] = (per_op(tracing.ROOT, "span_s"), "s")
    overhead = 0.0
    if traced_s and untraced_s:
        overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def layer_table(workload: str, totals, setup_totals, traced_ops: int) -> str:
    """The per-layer table: self time, share, calls and counts per traced op."""
    ops = max(1, traced_ops)
    lines = [
        f"per-layer table: {workload} ({traced_ops} traced ops; per-op means)",
        f"  {'layer':34s} {'self_s':>10s} {'share':>7s} {'calls':>8s} "
        f"{'setup_self_s':>12s}  counts",
    ]
    op_s = totals.get(tracing.ROOT, {}).get("span_s", 0.0) / ops
    names = sorted(set(totals) | set(setup_totals), key=lambda n: (n == tracing.ROOT, n))
    for name in names:
        row = totals.get(name, {"self_s": 0.0, "calls": 0})
        label = "other_s (op, uncovered)" if name == tracing.ROOT else name
        counts = ", ".join(
            f"{key}={value / ops:.4g}"
            for key, value in sorted(row.items())
            if key not in ("self_s", "span_s", "calls")
        )
        share = row["self_s"] / ops / op_s if op_s else 0.0
        lines.append(
            f"  {label:34s} {row['self_s'] / ops:10.5f} {share:7.1%} "
            f"{row['calls'] / ops:8.1f} "
            f"{setup_totals.get(name, {}).get('self_s', 0.0):12.4f}  {counts}"
        )
    self_sum = sum(row["self_s"] for row in totals.values()) / ops
    lines.append(f"  {'sum of self times':34s} {self_sum:10.5f}   (traced op time {op_s:.5f})")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #


def stamp(workload) -> dict:
    import numpy as np
    from repro.local_model import kernels

    return {
        "kernel_backend": kernels.backend_name(),
        "kernel_backend_reason": kernels.backend_reason(),
        "kernel_threads": kernels.get_num_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "decisions": sorted([list(d) for d in workload.decisions], key=str),
    }


def measure(workload, more, patch: Optional[tracing.Patch] = None):
    """The closed loop: prepare, time one op, check it; next op after that.

    ``more(index, elapsed)`` decides whether another op runs.  With a
    ``patch``, every other op runs traced (wrappers installed, one root
    span), the rest untraced, so the run measures its own tracing overhead.
    """
    tally = Tally()
    ops = []
    loop_start = time.perf_counter()
    index = 0
    while more(index, time.perf_counter() - loop_start):
        context = workload.prepare(index)
        traced = patch is not None and index % 2 == 1
        if traced:
            patch.install()
            root = patch.tracer.open(tracing.ROOT, op=index)
        start = time.perf_counter()
        try:
            outcome = workload.run(context)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if traced:
            patch.tracer.close(root)
            patch.remove()
        if error is None:
            items, problems = workload.check(context, outcome)
        else:
            items, problems = 0, [error]
        ok = tally.record(problems)
        ops.append({"i": index, "s": seconds, "items": items, "traced": traced, "ok": ok})
        outcome = context = None
        index += 1
    return ops, tally


def run(args) -> dict:
    """One process's share of a run: a timed set-up, then its operations."""
    workload = make_workload(args.workload, args.seed, args.smoke, args.part)
    tracer = tracing.Tracer()
    patch = None
    if args.trace:
        patch = tracing.Patch(tracer, layer_targets())
        patch.install()
        root = tracer.open(tracing.ROOT, op="setup")
    workload.setup()
    if args.trace:
        tracer.close(root)
        patch.remove()
    setup_s = time.monotonic() - args.spawned_at

    if WORKLOADS[args.workload]["kind"] == "churn":
        total = max(CHURN_MIN_BATCHES, round(CHURN_BATCHES_PER_SECOND * args.seconds))
        batches = math.ceil(total / PROCESSES)

        def more(index: int, elapsed: float) -> bool:
            return index < batches

    else:
        budget = args.seconds / PROCESSES

        def more(index: int, elapsed: float) -> bool:
            return index < 1 or elapsed < budget

    ops, tally = measure(workload, more, patch)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "errors": tally.errors,
        "quantities": workload.quantities(),
        "stamp": stamp(workload),
    }
    if args.trace:
        traced_ops = {i for i, op in enumerate(ops) if op["traced"]}
        result["totals"] = tracing.layer_totals(tracer.spans, traced_ops)
        result["setup_totals"] = tracing.layer_totals(tracer.spans, {"setup"})
        base = Path(OUT_DIR) / f"trace-{args.workload}-seed{args.seed}-part{args.part}"
        base.parent.mkdir(parents=True, exist_ok=True)
        tracing.write_jsonl(tracer.spans, f"{base}.jsonl")
        tracing.write_chrome(tracer.spans, f"{base}.chrome.json", args.workload)
        result["exports"] = [f"{base}.jsonl", f"{base}.chrome.json"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0, help="which of the run's processes")
    parser.add_argument("--prepare", action="store_true", help="only resolve the kernel backend")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--spawned-at", type=float, required=True, help="time.monotonic() at process spawn"
    )
    args = parser.parse_args(argv)
    if args.prepare:
        # Resolve (and, on a fresh checkout, compile) the kernel backend so
        # that no one-time compile lands inside a timed set-up.
        from repro.local_model import kernels

        result = {"kernel_backend": kernels.backend_name(), "reason": kernels.backend_reason()}
    else:
        result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
