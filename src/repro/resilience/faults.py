"""Deterministic, seedable fault injection for experiment sweeps.

A :class:`FaultPlan` is plain data -- a tuple of :class:`FaultSpec` entries,
each naming a sweep position (the scenario's index in the ``run`` call), a
fault kind, and how many execution attempts it should sabotage.  Plans are
JSON round-trippable so the :class:`~repro.experiments.ExperimentRunner` can
propagate them into process-pool workers through the ``REPRO_FAULT_PLAN``
environment variable: a worker rebuilds the injector with
:meth:`FaultInjector.from_env` and consults it around each scenario
execution.  Because the plan addresses ``(index, attempt)`` pairs and every
kind is deterministic, a faulted sweep is exactly reproducible -- the
foundation of the fault-matrix test suite.

Fault kinds
-----------

``"crash"``
    Kill the worker process with ``os._exit`` (breaking the process pool).
``"hang"``
    Sleep for ``hang_seconds`` before completing normally -- long enough to
    trip the runner's soft timeout when one is configured.
``"error"``
    Raise :class:`InjectedFaultError` (a clean, picklable worker exception).
``"corrupt"``
    Complete normally but mutate the result payload *after* its integrity
    digest was computed, so the parent detects the corruption and retries.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exceptions import ReproError

#: Environment variable carrying a JSON fault plan into pool workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The recognized fault kinds, in the order :meth:`FaultPlan.seeded` rolls them.
FAULT_KINDS = ("crash", "hang", "error", "corrupt")


class InjectedFaultError(ReproError, RuntimeError):
    """An error deliberately raised by the fault injector (always retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``index`` is the scenario's position in the sweep; the fault fires while
    the runner-side ``attempt`` counter is below ``attempts`` (so with the
    default ``attempts=1`` only the first execution is sabotaged and the
    first retry succeeds).  ``hang_seconds`` applies to ``"hang"`` only.
    """

    index: int
    kind: str
    attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {FAULT_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError("FaultSpec.attempts must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of planned faults, addressable by (index, attempt)."""

    specs: Tuple[FaultSpec, ...] = ()

    def spec_for(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to fire for this execution, or ``None``."""
        for spec in self.specs:
            if spec.index == index and attempt < spec.attempts:
                return spec
        return None

    def __len__(self) -> int:
        return len(self.specs)

    def to_json(self) -> str:
        """A canonical JSON encoding (the env-propagation wire format)."""
        return json.dumps(
            [
                {
                    "index": spec.index,
                    "kind": spec.kind,
                    "attempts": spec.attempts,
                    "hang_seconds": spec.hang_seconds,
                }
                for spec in self.specs
            ],
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec(
                    index=int(entry["index"]),
                    kind=str(entry["kind"]),
                    attempts=int(entry.get("attempts", 1)),
                    hang_seconds=float(entry.get("hang_seconds", 30.0)),
                )
                for entry in json.loads(text)
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_scenarios: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        error_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        attempts: int = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """A reproducible random plan: at most one fault per scenario index.

        Each index rolls one uniform draw against the cumulative rates (in
        :data:`FAULT_KINDS` order), so the same ``seed`` always yields the
        same plan regardless of which rates are zero.  Every rate must lie in
        ``[0, 1]`` (NaN does not) and the rates must sum to at most 1.
        """
        rates = (crash_rate, hang_rate, error_rate, corrupt_rate)
        if not all(0.0 <= rate <= 1.0 for rate in rates) or sum(rates) > 1.0:
            raise ValueError(
                f"fault rates must each lie in [0, 1] and sum to at most 1.0, got {rates}"
            )
        rng = random.Random(seed)
        specs = []
        for index in range(num_scenarios):
            roll = rng.random()
            cumulative = 0.0
            for kind, rate in zip(FAULT_KINDS, rates):
                cumulative += rate
                if roll < cumulative:
                    specs.append(
                        FaultSpec(
                            index=index,
                            kind=kind,
                            attempts=attempts,
                            hang_seconds=hang_seconds,
                        )
                    )
                    break
        return cls(specs=tuple(specs))


class FaultInjector:
    """Activates a :class:`FaultPlan` around scenario executions.

    It acts in process-pool workers only: each worker builds one with
    :meth:`from_env`, and a ``"crash"`` is a real ``os._exit`` of that
    worker.  The in-process sweep (``max_workers=0``) takes no fault plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """The injector described by ``$REPRO_FAULT_PLAN``, or ``None``."""
        raw = os.environ.get(FAULT_PLAN_ENV)
        if not raw:
            return None
        return cls(FaultPlan.from_json(raw))

    def fire_before_run(self, index: int, attempt: int) -> None:
        """Trigger any pre-execution fault for ``(index, attempt)``."""
        spec = self.plan.spec_for(index, attempt)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(13)
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
        elif spec.kind == "error":
            raise InjectedFaultError(
                f"injected worker error at scenario {index}, attempt {attempt}"
            )
        # "corrupt" fires after the run (corrupt_payload).

    def corrupt_payload(self, index: int, attempt: int, payload: Dict) -> bool:
        """Mutate ``payload`` in place for a ``"corrupt"`` fault; True if fired.

        Called *after* the worker computed the payload's integrity digest, so
        the mutation is detectable (and retried) by the parent.
        """
        spec = self.plan.spec_for(index, attempt)
        if spec is None or spec.kind != "corrupt":
            return False
        payload["_injected_corruption"] = f"scenario {index}, attempt {attempt}"
        if "coloring_digest" in payload:
            payload["coloring_digest"] = "0" * 64
        return True
