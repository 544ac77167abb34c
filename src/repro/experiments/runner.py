"""The parallel, caching, fault-tolerant experiment runner.

:class:`ExperimentRunner` takes a list of :class:`~repro.experiments.scenarios.Scenario`
objects and produces one :class:`ScenarioResult` per scenario, in input order:

1. every scenario is first looked up in the on-disk cache (if one is
   configured) by its SHA-256 cache token;
2. the misses execute (see :mod:`repro.experiments.executors`): in-process
   as a plain retry loop when ``max_workers=0``, otherwise sharded across a
   ``concurrent.futures.ProcessPoolExecutor`` (also for one worker or one
   pending scenario);
3. every fresh result is written back to the cache *as it lands*
   (write-through), so an interrupted sweep acts as a checkpoint: re-running
   it re-executes only the scenarios that had not finished.

A worker failure never aborts the sweep.  Exceptions are captured per
scenario into ``ScenarioResult.status`` / ``error`` after up to
``retries + 1`` attempts.  The faults a retry can heal happen in the pool
only, so only the pool has a per-scenario soft timeout, transparent
recovery from a broken process pool (the pool is rebuilt and only
unfinished work resubmitted) and integrity digests that catch payloads
corrupted in transit.  A seedable :class:`~repro.resilience.FaultPlan` can
be injected into the pool to rehearse all of this deterministically.

Only :class:`~repro.exceptions.InvalidParameterError` still propagates: an
invalid scenario is a caller bug, not a fault, and retrying it cannot help.

Duplicate scenarios (same cache token) are executed only once per ``run``
call.  ``max_workers=0`` keeps execution in the calling process -- useful
under hypothesis or in debuggers.

Sweep-level progress is reported through an optional ``on_progress`` callback
(off by default): it fires once per scenario -- immediately for cache hits,
as executions complete for fresh ones -- with ``(done, total, scenario,
cached)``.  :func:`progress_ticker` builds a ready-made stderr ticker
callback.  Aggregate reliability counters for the last sweep (retries,
timeouts, pool rebuilds, failures, ...) are kept on
``runner.last_stats``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
)

from repro.exceptions import InvalidParameterError
from repro.experiments.cache import ResultCache
from repro.experiments.executors import (
    ExecutionRequest,
    _Outcome,
    execute_pool,
    execute_serial,
)
from repro.experiments.scenarios import Scenario
from repro.resilience.faults import FaultPlan

#: Signature of the sweep progress callback: ``(done, total, scenario, cached)``.
ProgressCallback = Callable[[int, int, Scenario, bool], None]


def progress_ticker(stream: Optional[TextIO] = None) -> ProgressCallback:
    """A ready-made ``on_progress`` callback: one status line per completion.

    Writes ``[done/total] scenario-name (cached)`` lines to ``stream``
    (default ``sys.stderr``, resolved at call time so pytest's capture
    replacement is honored).
    """

    def tick(done: int, total: int, scenario: Scenario, cached: bool) -> None:
        out = stream if stream is not None else sys.stderr
        suffix = " (cached)" if cached else ""
        out.write(f"[{done}/{total}] {scenario.name}{suffix}\n")
        out.flush()

    return tick


@dataclass
class SweepStats:
    """Aggregate reliability counters for one ``run`` call.

    ``retries`` counts re-executions charged to a specific scenario (worker
    exceptions, integrity mismatches, soft timeouts, and the collective
    charge after a pool breakage); ``pool_rebuilds`` counts the process-pool
    generations created beyond the first.
    """

    scenarios: int = 0
    cache_hits: int = 0
    fresh: int = 0
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0


@dataclass
class ScenarioResult:
    """One scenario's outcome.

    ``payload`` holds the JSON-safe result produced by the algorithm runner
    (metrics, palette, colors_used, coloring digest, wall time, ...);
    ``cached`` tells whether it was served from the on-disk cache.

    ``status`` is ``"ok"`` or ``"failed"``.  A failed result has
    ``payload=None`` and an attributed ``error`` string (the final exception,
    timeout, or pool breakage, after ``attempts`` executions); unknown
    attribute lookups then raise :class:`AttributeError` instead of
    dereferencing a payload that does not exist.
    """

    scenario: Scenario
    payload: Optional[Dict[str, Any]]
    cached: bool
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1

    def __getattr__(self, name: str) -> Any:
        # Dunder probes (pickle's __getstate__, copy's __deepcopy__,
        # __dataclass_fields__ lookups on the instance, ...) must fail fast
        # with AttributeError instead of being searched for in the payload
        # dict -- otherwise copying or pickling a result explodes on payload
        # keys that merely *look* like protocol hooks, and every protocol
        # probe costs a dict lookup.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        payload = self.__dict__.get("payload")
        if payload is None:
            raise AttributeError(name)
        try:
            return payload[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def name(self) -> str:
        return self.scenario.name


class ExperimentRunner:
    """Run scenario sweeps in-process or on a process pool, with caching and
    fault tolerance.

    Parameters
    ----------
    cache_dir:
        Directory of the result cache (see :mod:`repro.experiments.cache`).
        ``None`` disables caching (and with it checkpoint/resume).
    max_workers:
        Worker count.  ``0`` runs the sweep in-process as a plain retry
        loop; any other value runs it on a process pool with that many
        workers.  ``None`` uses ``os.cpu_count()`` (capped by the number of
        pending scenarios).  Negative values raise
        :class:`~repro.exceptions.InvalidParameterError`.
    on_progress:
        Default sweep-progress callback used by :meth:`run` when none is
        passed explicitly; ``None`` (the default) disables reporting.
    retries:
        How many times a failing scenario is re-executed before it is
        recorded as ``status="failed"`` (so each scenario runs at most
        ``retries + 1`` times, in-process or in the pool).  Must be ``>= 0``.
    timeout:
        Per-scenario soft timeout in seconds (``> 0``, or ``None`` for no
        timeout), measured from when a pool worker starts the scenario.  On
        expiry the scenario is charged an attempt and the pool is lost,
        because a hung worker cannot be reclaimed.  Pool only.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` to inject deterministic
        faults, propagated to pool workers via ``$REPRO_FAULT_PLAN``.  Pool
        only.

    ``timeout`` or ``fault_plan`` with ``max_workers=0`` raises
    :class:`~repro.exceptions.InvalidParameterError`: the in-process loop
    has neither.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_workers: Optional[int] = None,
        on_progress: Optional[ProgressCallback] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise InvalidParameterError(
                f"max_workers must be >= 0 or None, got {max_workers}"
            )
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise InvalidParameterError(f"timeout must be > 0 or None, got {timeout}")
        if max_workers == 0 and (timeout is not None or fault_plan is not None):
            raise InvalidParameterError(
                "timeout and fault_plan act in the process pool only; "
                "max_workers=0 runs in-process"
            )
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.on_progress = on_progress
        self.retries = retries
        self.timeout = timeout
        self.fault_plan = fault_plan
        #: :class:`SweepStats` of the most recent :meth:`run` call.
        self.last_stats = SweepStats()

    def run(
        self,
        scenarios: Sequence[Scenario],
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[ScenarioResult]:
        """Run every scenario (cache-first, then executed), in input order.

        ``on_progress`` (or the runner's default) is invoked once per
        scenario with ``(done, total, scenario, cached)``: immediately for
        cache hits and duplicates, and in completion order for fresh
        executions.  ``done`` counts monotonically up to ``len(scenarios)``.
        """
        on_progress = on_progress if on_progress is not None else self.on_progress
        scenarios = list(scenarios)
        tokens = [scenario.cache_token() for scenario in scenarios]
        total = len(scenarios)
        done = 0
        stats = SweepStats(scenarios=total)
        self.last_stats = stats

        def report(index: int, cached: bool) -> None:
            nonlocal done
            done += 1
            if on_progress is not None:
                on_progress(done, total, scenarios[index], cached)

        outcomes: Dict[str, _Outcome] = {}
        if self.cache is not None:
            for scenario, token in zip(scenarios, tokens):
                if token in outcomes:
                    continue
                hit = self.cache.get(token)
                if hit is not None:
                    outcomes[token] = _Outcome(payload=hit, cached=True)
                    stats.cache_hits += 1
        for index, token in enumerate(tokens):
            if token in outcomes:
                report(index, cached=True)

        pending: List[int] = []
        pending_tokens = set()
        for index, token in enumerate(tokens):
            if token not in outcomes and token not in pending_tokens:
                pending.append(index)
                pending_tokens.add(token)

        def complete(index: int, outcome: _Outcome) -> None:
            # Write-through: each fresh result checkpoints to the cache the
            # moment it lands, so an interrupted sweep resumes from here.
            token = tokens[index]
            outcomes[token] = outcome
            if outcome.status == "ok":
                stats.fresh += 1
                if self.cache is not None:
                    self.cache.put(token, scenarios[index].key(), outcome.payload)
            else:
                stats.failures += 1
            report(index, cached=False)

        if pending:
            workers = self.max_workers
            if workers is None:
                workers = min(len(pending), os.cpu_count() or 1)
            execute = execute_serial if workers == 0 else execute_pool
            execute(
                ExecutionRequest(
                    scenarios=scenarios,
                    pending=pending,
                    complete=complete,
                    stats=stats,
                    retries=self.retries,
                    timeout=self.timeout,
                    fault_plan=self.fault_plan,
                    workers=workers,
                )
            )

        # Duplicates of freshly executed scenarios resolve last (their
        # outcome was computed once, under the executing index).
        pending_set = set(pending)
        for index, token in enumerate(tokens):
            if token in pending_tokens and index not in pending_set:
                report(index, cached=False)

        return [
            ScenarioResult(
                scenario=scenario,
                payload=outcomes[token].payload,
                cached=outcomes[token].cached,
                status=outcomes[token].status,
                error=outcomes[token].error,
                attempts=outcomes[token].attempts,
            )
            for scenario, token in zip(scenarios, tokens)
        ]
