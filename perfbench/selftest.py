"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Covers the self-time arithmetic (nested and overlapping children), the
percentile rule, failure counting (a planted wrong coloring must raise the
failed fraction), the wrappers' install/remove round trip, and one smoke run
of every workload through ``run.py`` whose output must name exactly the
metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def span(name, start, end, parent=None, op=0):
    return tracing.Span(name, start, end, parent=parent, op=op)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span("op", 0.0, 10.0),
            span("a", 1.0, 5.0, parent=0),
            span("b", 2.0, 3.0, parent=1),
            span("c", 3.5, 4.0, parent=1),
            span("d", 6.0, 9.0, parent=0),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.5, 1.0, 0.5, 3.0])
        self.assertAlmostEqual(sum(tracing.self_times(spans)), 10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        self.assertEqual(tracing.covered((0.0, 10.0), [(1, 4), (2, 5), (8, 12)]), 6.0)
        self.assertEqual(tracing.covered((0.0, 10.0), []), 0.0)

    def test_layer_totals_filter_ops_and_sum_attrs(self):
        spans = [
            span("op", 0.0, 4.0, op=1),
            span("x", 1.0, 2.0, parent=0, op=1),
            span("op", 5.0, 6.0, op=2),
        ]
        spans[1].attrs["entries"] = 7
        totals = tracing.layer_totals(spans, {1})
        self.assertEqual(totals["op"], {"self_s": 3.0, "span_s": 4.0, "calls": 1})
        self.assertEqual(totals["x"], {"self_s": 1.0, "span_s": 1.0, "calls": 1, "entries": 7})

    def test_tracer_wrappers_nest_and_skip_reentry(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        class Base:
            def step(self):
                return 1

        class Child(Base):
            def step(self):
                return super().step() + 1

        class Owner:
            @classmethod
            def build(cls):
                return Child().step()

        patch = tracing.Patch(
            tracer,
            [
                tracing.Target(Owner, "build", "build", lambda r: {"value": r}),
                tracing.Target(Base, "step", "step", reentrant=False),
                tracing.Target(Child, "step", "step", reentrant=False),
            ],
        )
        originals = (vars(Owner)["build"], vars(Base)["step"], vars(Child)["step"])
        self.assertEqual(Owner.build(), 2)
        self.assertEqual(tracer.spans, [])  # outside an op nothing records
        patch.install()
        root = tracer.open("op", op=0)
        self.assertEqual(Owner.build(), 2)
        tracer.close(root)
        patch.remove()
        self.assertEqual((vars(Owner)["build"], vars(Base)["step"], vars(Child)["step"]), originals)
        self.assertEqual([s.name for s in tracer.spans], ["op", "build", "step"])
        self.assertEqual(tracer.spans[1].attrs, {"value": 2})
        self.assertEqual(tracer.spans[2].parent, 1)
        self.assertAlmostEqual(sum(tracing.self_times(tracer.spans)), tracer.spans[0].duration)

    def test_exports_are_valid_json(self):
        spans = [span("op", 0.0, 1.0), span("a", 0.2, 0.4, parent=0)]
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracing.write_jsonl(spans, out / "selftest.jsonl")
        tracing.write_chrome(spans, out / "selftest.chrome.json")
        lines = (out / "selftest.jsonl").read_text().splitlines()
        self.assertEqual([json.loads(line)["name"] for line in lines], ["op", "a"])
        events = json.loads((out / "selftest.chrome.json").read_text())["traceEvents"]
        self.assertEqual([e["dur"] for e in events if e["ph"] == "X"], [1e6, 0.2e6])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank(range(1, 11), 90), 9)
        self.assertEqual(run.nearest_rank(range(1, 101), 90), 90)
        self.assertEqual(run.nearest_rank([5.0], 90), 5.0)
        self.assertEqual(run.nearest_rank([3, 1, 2], 50), 2)

    def test_ten_samples_beyond_needs_a_hundred(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(7, 90), 0)


class FailureCountingTest(unittest.TestCase):
    def test_tally(self):
        tally = worker.Tally()
        tally.record([])
        tally.record(["bad"])
        tally.record([])
        tally.record(["worse", "still"])
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertEqual(tally.failed / tally.attempted, 0.5)
        self.assertEqual(tally.errors, ["bad", "worse; still"])

    def test_palette_chain_and_fallback_checks(self):
        import numpy as np
        from repro.local_model.metrics import RunMetrics

        self.assertEqual(worker.coloring_problems(np.array([1, 2, 3]), 3), [])
        self.assertTrue(worker.coloring_problems(np.array([1, 2, 9]), 3))
        self.assertTrue(worker.coloring_problems(np.array([2, 3, 4, 1, 1]), 3))
        metrics = RunMetrics()
        self.assertEqual(worker.metrics_problems(metrics, "cext", ()), [])
        metrics.compiled_fallback_phase_names.append("linial")
        self.assertEqual(worker.metrics_problems(metrics, None, ()), [])
        self.assertTrue(worker.metrics_problems(metrics, "cext", ()))
        self.assertTrue(worker.metrics_problems(RunMetrics(), None, ("compiled",)))
        metrics = RunMetrics()
        metrics.fallback_phase_names.append("psi-selection")
        self.assertTrue(worker.metrics_problems(metrics, None, ()))

    def test_planted_wrong_coloring_raises_failed_frac(self):
        import repro

        workload = worker.make_workload("vertex-geo100k", seed=3, smoke=True)
        workload.setup()
        original = vars(repro)["color_graph"]

        def planted(g, **kwargs):
            result = original(g, **kwargs)
            u = int(g.rows_np[0])
            result.color_column[int(g.indices_np[0])] = result.color_column[u]
            return result

        def more(index, elapsed):
            return index < 2

        ops, tally = worker.measure(workload, more)
        self.assertEqual(tally.failed, 0)
        repro.color_graph = planted
        try:
            ops, tally = worker.measure(workload, more)
        finally:
            repro.color_graph = original
        self.assertEqual(tally.failed / tally.attempted, 1.0)
        self.assertIn("ColoringError", tally.errors[0])

    def test_planted_churn_conflict_is_caught_by_the_untimed_check(self):
        workload = worker.make_workload("churn-rr50k", seed=3, smoke=True)
        workload.setup()
        session = workload.session
        original = type(session).apply_updates

        def planted(self, added=None, removed=None):
            report = original(self, added, removed)
            u, v = int(self.network.rows_np[0]), int(self.network.indices_np[0])
            self._column[v] = self._column[u]
            return report

        def more(index, elapsed):
            return index < 3

        session.apply_updates = planted.__get__(session)
        try:
            ops, tally = worker.measure(workload, more)
        finally:
            del session.apply_updates
        self.assertEqual(tally.failed, 3)
        self.assertIn("verify", tally.errors[0])


class SmokeRunTest(unittest.TestCase):
    def test_every_workload_prints_exactly_the_declared_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names, set(worker.WORKLOADS))
        for workload in sorted(names):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [
                            sys.executable, str(HERE / "run.py"),
                            "--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), "--smoke",
                        ],
                        cwd=ROOT, capture_output=True, text=True, timeout=300,
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    last = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    printed = {n: m["unit"] for n, m in last["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace:
                        metrics = {n: m["value"] for n, m in last["metrics"].items()}
                        covered = sum(
                            v for n, v in metrics.items() if n.endswith(".self_s")
                        ) + metrics["other_s"]
                        self.assertAlmostEqual(covered, metrics["trace.op_s.mean"], places=9)


if __name__ == "__main__":
    unittest.main()
