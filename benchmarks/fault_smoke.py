"""Fault-injection smoke test: a faulted sweep must complete and self-heal.

Runs a small scenario sweep through :class:`repro.experiments.ExperimentRunner`
on the process pool under a *seeded* :class:`repro.resilience.FaultPlan`
(worker crashes, a hang past the soft timeout, injected errors, and payload
corruption) and asserts the resilience contract end to end:

* the sweep completes (no abort) with every scenario ``status="ok"``;
* the recovered payloads are bit-identical to a fault-free serial run
  (modulo wall time, which is run-dependent by construction);
* the retry machinery actually engaged (non-empty retry metrics).

Exit code 0 on success; an ``AssertionError`` otherwise.  Run it as::

    PYTHONPATH=src python benchmarks/fault_smoke.py [--workers 2]

CI runs it in the ``resilience`` job (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.experiments import ExperimentRunner, GraphSpec, Scenario
from repro.resilience import FaultPlan

NUM_SCENARIOS = 8
#: Chosen so the plan covers all four in-sweep fault kinds at these rates:
#: two crashes, one hang, two corruptions, one injected error.
SEED = 69


def build_scenarios() -> list:
    return [
        Scenario.make(
            name=f"smoke-{i}",
            graph=GraphSpec("random_regular", n=24 + 4 * i, degree=4, seed=i),
            algorithm="legal_coloring",
            params={"c": 2, "quality": "linear"},
        )
        for i in range(NUM_SCENARIOS)
    ]


def build_plan() -> FaultPlan:
    return FaultPlan.seeded(
        SEED,
        num_scenarios=NUM_SCENARIOS,
        crash_rate=0.25,
        hang_rate=0.15,
        error_rate=0.25,
        corrupt_rate=0.15,
        hang_seconds=60.0,
    )


def stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "wall_time"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool worker count (default: 2)",
    )
    args = parser.parse_args(argv)

    scenarios = build_scenarios()
    plan = build_plan()
    kinds = sorted(spec.kind for spec in plan.specs)
    assert plan.specs, "seed produced an empty plan; pick a different seed"
    print(f"fault plan ({args.workers} workers): {len(plan)} faults -> {kinds}")

    reference = [
        stable(r.payload)
        for r in ExperimentRunner(cache_dir=None, max_workers=0).run(scenarios)
    ]

    with tempfile.TemporaryDirectory(prefix="repro-fault-smoke-") as tmp:
        runner = ExperimentRunner(
            cache_dir=tmp,
            max_workers=args.workers,
            retries=3,
            timeout=10.0,
            fault_plan=plan,
        )
        results = runner.run(scenarios)

    statuses = [r.status for r in results]
    assert statuses == ["ok"] * NUM_SCENARIOS, f"sweep did not self-heal: {statuses}"
    recovered = [stable(r.payload) for r in results]
    assert recovered == reference, "recovered payloads differ from fault-free run"
    stats = runner.last_stats
    assert stats.retries > 0, f"no retries recorded under a faulted plan: {stats}"
    print(
        f"ok: {stats.fresh} scenarios completed, {stats.retries} retries, "
        f"{stats.timeouts} timeouts, {stats.pool_rebuilds} pool rebuilds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
