"""The reliability substrate: fault injection + graceful engine degradation.

The paper's LOCAL-model algorithms are designed for unreliable distributed
settings; this package gives the *execution layer* the same discipline, on
one machine first, where every failure mode is deterministic and testable:

* :mod:`repro.resilience.faults` -- a seedable :class:`FaultPlan` /
  :class:`FaultInjector` pair that makes scenario workers crash, hang, raise,
  corrupt their payloads, or lose their compiled-kernel backend at chosen
  sweep positions and attempts, env-propagated so process-pool runs are
  injectable;
* :mod:`repro.resilience.degrade` -- the engine degradation chain
  (compiled -> vectorized -> batched -> reference) that re-runs work on the
  next bit-identical engine when one fails as infrastructure.

The hardened :class:`~repro.experiments.ExperimentRunner` (retries, soft
timeouts, broken-pool recovery, write-through checkpointing) consumes both.
"""

from repro.resilience.degrade import (
    DEGRADE_CHAIN,
    DegradedRun,
    degrade_path,
    run_with_degradation,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
)

__all__ = [
    "DEGRADE_CHAIN",
    "DegradedRun",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "degrade_path",
    "run_with_degradation",
]
