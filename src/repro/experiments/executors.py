"""How :class:`~repro.experiments.ExperimentRunner` executes pending scenarios.

The runner's sweep logic (cache-first lookup, duplicate folding, write-through
checkpointing, result assembly) does not care how scenarios execute; that
lives here, in two functions the runner picks between by ``max_workers``:

:func:`execute_serial`
    In-process execution, one scenario at a time, with the same soft-timeout
    watchdog (:func:`call_with_soft_timeout`), retry policy, and integrity
    verification as the pool -- the status matrix of a sweep is identical
    whichever of the two ran it.
:func:`execute_pool`
    The ``concurrent.futures`` process pool, executed in *generations*: a
    broken pool is rebuilt and only unfinished work resubmitted, collective
    breakage charges bound poison scenarios to ``retries + 1`` attempts, and
    never-individually-convicted suspects get an isolated retrial.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.experiments.scenarios import ALGORITHMS, Scenario, payload_digest
from repro.resilience.faults import FAULT_PLAN_ENV, FaultInjector, FaultPlan

#: How often the pool loop wakes to check soft timeouts (seconds).  It only
#: polls when a timeout is configured; without one it blocks until a future
#: completes.
_POLL_SECONDS = 0.05


class SoftTimeoutExpired(Exception):
    """A scenario execution exceeded its soft timeout (internal signal)."""


def call_with_soft_timeout(fn: Callable[[], Any], timeout: Optional[float]) -> Any:
    """Run ``fn()`` with a watchdog; raise :class:`SoftTimeoutExpired` on expiry.

    With ``timeout=None`` this is a plain call -- no thread, no overhead.
    Otherwise ``fn`` runs on a daemon thread and the caller waits up to
    ``timeout`` seconds: the timed-out thread cannot be killed (it is
    abandoned and may finish later), which exactly mirrors the pool backend's
    semantics where a hung worker is written off rather than reclaimed.
    """
    if timeout is None:
        return fn()
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise SoftTimeoutExpired(
            f"soft timeout: no result within {timeout:g}s (worker hung)"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _run_payload(scenario: Scenario) -> Dict[str, Any]:
    """Execute ``scenario`` on its engine and return its JSON-safe payload."""
    try:
        runner = ALGORITHMS[scenario.algorithm]
    except KeyError:
        raise InvalidParameterError(
            f"unknown algorithm {scenario.algorithm!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    started = time.perf_counter()
    network = scenario.graph.build()
    payload = runner(
        network,
        scenario.params_dict,
        scenario.engine,
        scenario.capture_colors,
    )
    payload["wall_time"] = time.perf_counter() - started
    payload["num_nodes"] = network.num_nodes
    payload["num_edges"] = network.num_edges
    payload["max_degree"] = network.max_degree
    return payload


def _execute_scenario(
    scenario: Scenario,
    index: int = 0,
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
) -> Dict[str, Any]:
    """The worker entry point (module-level so it pickles): one envelope.

    The envelope wraps the result payload with an integrity digest that must
    never leak into the cached payload itself (cached payloads stay
    bit-identical to fault-free runs), computed *before* any injected
    corruption so the parent can verify the payload it received.
    """
    if injector is None:
        injector = FaultInjector.from_env()
    if injector is not None:
        injector.fire_before_run(index, attempt)
    payload = _run_payload(scenario)
    envelope = {"payload": payload, "integrity": payload_digest(payload)}
    if injector is not None:
        injector.corrupt_payload(index, attempt, payload)
    return envelope


@dataclass
class _Outcome:
    """Internal per-token outcome record (shared by duplicate scenarios)."""

    payload: Optional[Dict[str, Any]] = None
    cached: bool = False
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1


@dataclass
class ExecutionRequest:
    """Everything an executor needs to run one sweep's pending scenarios.

    ``complete(index, outcome)`` is the runner's write-through completion
    callback (it caches, counts, and reports progress); an executor must
    call it exactly once per pending index.  ``stats`` is the live
    :class:`~repro.experiments.runner.SweepStats` the executor charges its
    reliability counters to.
    """

    scenarios: Sequence[Scenario]
    pending: Sequence[int]
    complete: Callable[[int, _Outcome], None]
    stats: Any
    retries: int = 2
    retry_backoff: float = 0.0
    timeout: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    workers: int = 1

    def backoff(self, attempt: int) -> None:
        delay = self.retry_backoff * (2 ** max(0, attempt - 1))
        if delay > 0:
            time.sleep(delay)


def execute_serial(request: ExecutionRequest) -> None:
    """In-process execution with the full capture/retry/timeout policy.

    The soft timeout is enforced with the same watchdog semantics as the
    pool (same error string, same attempt charging), so a sweep's status
    matrix does not depend on which executor ran it.  Injected ``"crash"``
    faults degrade to raised errors here -- exiting the caller's interpreter
    is never acceptable in-process.
    """
    injector = (
        FaultInjector(request.fault_plan, allow_process_exit=False)
        if request.fault_plan is not None
        else None
    )
    for index in request.pending:
        scenario = request.scenarios[index]
        attempt = 0
        while True:
            error = None
            envelope = None
            try:
                envelope = call_with_soft_timeout(
                    lambda s=scenario, i=index, a=attempt: _execute_scenario(
                        s, i, a, injector=injector
                    ),
                    request.timeout,
                )
            except InvalidParameterError:
                raise
            except SoftTimeoutExpired as exc:
                request.stats.timeouts += 1
                error = str(exc)
            except Exception as exc:  # noqa: BLE001 - capture, not abort
                error = f"{type(exc).__name__}: {exc}"
            if error is None and envelope["integrity"] != payload_digest(
                envelope["payload"]
            ):
                error = "payload integrity digest mismatch"
            if error is None:
                request.complete(
                    index, _Outcome(payload=envelope["payload"], attempts=attempt + 1)
                )
                break
            attempt += 1
            if attempt > request.retries:
                request.complete(
                    index,
                    _Outcome(status="failed", error=error, attempts=attempt),
                )
                break
            request.stats.retries += 1
            request.backoff(attempt)


def execute_pool(request: ExecutionRequest) -> None:
    """Pool execution in *generations*: a lost pool is rebuilt, and only
    unfinished work is resubmitted to the replacement."""
    previous_env = None
    env_set = False
    if request.fault_plan is not None:
        previous_env = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = request.fault_plan.to_json()
        env_set = True
    attempts = dict.fromkeys(request.pending, 0)
    unfinished = list(request.pending)
    suspects: set = set()
    first = True
    try:
        while unfinished:
            if not first:
                request.stats.pool_rebuilds += 1
            first = False
            unfinished = _pool_generation(
                request, unfinished, attempts, request.workers, suspects
            )
        # Scenarios that ran out of attempts purely through *collective*
        # pool-breakage charges were never individually convicted: give
        # each one isolated, single-worker execution.  If the pool breaks
        # again the crash is theirs beyond doubt (and is recorded as such);
        # innocents caught near a serial crasher complete here.
        for index in sorted(suspects):
            unfinished = [index]
            while unfinished:
                request.stats.pool_rebuilds += 1
                unfinished = _pool_generation(
                    request, unfinished, attempts, 1, suspects, isolated=True
                )
    finally:
        if env_set:
            if previous_env is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous_env


def _pool_generation(
    request: ExecutionRequest,
    unfinished: Sequence[int],
    attempts: Dict[int, int],
    workers: int,
    suspects: set,
    isolated: bool = False,
) -> List[int]:
    """Drain one process pool; return the indexes a fresh pool must redo.

    The generation ends early ("the pool is lost") on a broken pool or a
    soft-timeout expiry, because in both cases at least one worker can no
    longer be trusted or reclaimed.  A pool breakage cannot be attributed
    to a single scenario, so it charges one attempt to *every* index that
    was unfinished at that moment -- this guarantees termination (a
    scenario that always kills its worker runs out of attempts after at
    most ``retries + 1`` breakages).  Indexes exhausted *only* by those
    collective charges are not failed here but parked in ``suspects`` for
    an isolated retrial (see :func:`execute_pool`); in an ``isolated``
    (single-scenario) generation a breakage is individual guilt and fails
    the scenario directly.
    """
    scenarios = request.scenarios
    complete = request.complete
    stats = request.stats
    pool = ProcessPoolExecutor(max_workers=workers)
    futures: Dict[Any, int] = {}
    started: Dict[Any, float] = {}
    remaining = set(unfinished)
    lost = False
    charge_all = False

    def submit(index: int) -> bool:
        """Queue ``index``; False when a worker already broke the pool."""
        try:
            future = pool.submit(_execute_scenario, scenarios[index], index, attempts[index])
        except BrokenProcessPool:
            return False
        futures[future] = index
        return True

    try:
        # A worker crash can break the pool while work is still being
        # submitted; that is the same collective loss as a broken future.
        if not all(submit(index) for index in unfinished):
            lost = charge_all = True
        while futures and not lost:
            tick = _POLL_SECONDS if request.timeout is not None else None
            finished, _ = wait(set(futures), timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in finished:
                index = futures.pop(future)
                started.pop(future, None)
                envelope = None
                error = None
                try:
                    envelope = future.result()
                except InvalidParameterError:
                    raise
                except BrokenProcessPool:
                    lost = True
                    charge_all = True
                    break
                except Exception as exc:  # noqa: BLE001 - capture, not abort
                    error = f"{type(exc).__name__}: {exc}"
                if error is None and envelope["integrity"] != payload_digest(
                    envelope["payload"]
                ):
                    error = "payload integrity digest mismatch (corrupted in transit)"
                if error is None:
                    remaining.discard(index)
                    complete(
                        index,
                        _Outcome(payload=envelope["payload"], attempts=attempts[index] + 1),
                    )
                    continue
                attempts[index] += 1
                if attempts[index] > request.retries:
                    remaining.discard(index)
                    complete(
                        index,
                        _Outcome(status="failed", error=error, attempts=attempts[index]),
                    )
                else:
                    stats.retries += 1
                    request.backoff(attempts[index])
                    if not submit(index):
                        lost = charge_all = True
                        break
            if lost or request.timeout is None:
                continue
            for future in list(futures):
                if future not in started and future.running():
                    started[future] = now
            expired = [
                future
                for future, began in started.items()
                if future in futures and now - began >= request.timeout
            ]
            if expired:
                # A hung worker cannot be cancelled or reclaimed: charge the
                # timed-out scenarios an attempt and lose the pool.
                lost = True
                stats.timeouts += len(expired)
                for future in expired:
                    index = futures.pop(future)
                    attempts[index] += 1
                    if attempts[index] > request.retries:
                        remaining.discard(index)
                        complete(
                            index,
                            _Outcome(
                                status="failed",
                                error=(
                                    f"soft timeout: no result within "
                                    f"{request.timeout:g}s (worker hung)"
                                ),
                                attempts=attempts[index],
                            ),
                        )
                    else:
                        stats.retries += 1
    finally:
        _teardown_pool(pool, graceful=not lost)
    if charge_all:
        # The pool broke; every unfinished scenario pays one attempt (see the
        # docstring for why attribution is collective).
        for index in sorted(remaining):
            attempts[index] += 1
            if isolated:
                # The scenario was alone in this pool: the crash is its.
                remaining.discard(index)
                complete(
                    index,
                    _Outcome(
                        status="failed",
                        error=(
                            "worker process crashed while executing this "
                            "scenario (confirmed in isolation); retries "
                            "exhausted"
                        ),
                        attempts=attempts[index],
                    ),
                )
            elif attempts[index] > request.retries:
                remaining.discard(index)
                suspects.add(index)
            else:
                stats.retries += 1
    return sorted(remaining)


def _teardown_pool(pool: ProcessPoolExecutor, graceful: bool) -> None:
    """Shut a pool down; a lost pool's workers are terminated outright.

    ``_processes`` is private executor state, but it is the only handle on a
    *hung* worker -- ``shutdown`` alone would block on (or leak) it.  The
    access is defensive: if the attribute moves, teardown degrades to the
    plain non-waiting shutdown.
    """
    if graceful:
        pool.shutdown(wait=True)
        return
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    pool.shutdown(wait=False, cancel_futures=True)
