"""The two sweep executors and the runner's choice between them.

:func:`~repro.experiments.executors.execute_serial` and
:func:`~repro.experiments.executors.execute_pool` are driven directly through
an :class:`~repro.experiments.executors.ExecutionRequest` here; the runner's
dispatch rule (in-process at ``max_workers=0`` only, the pool otherwise) is
checked by recording which executor it calls.  End-to-end fault matrices
live in ``test_resilience.py``.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import ExperimentRunner, GraphSpec, Scenario, SweepStats
from repro.experiments import executors
from repro.experiments import runner as runner_module
from repro.experiments.executors import ExecutionRequest, execute_pool, execute_serial
from repro.experiments.scenarios import ALGORITHMS
from repro.resilience import FAULT_PLAN_ENV, FaultPlan, FaultSpec


def scenario(tag: str, seed: int = 7, n: int = 16) -> Scenario:
    return Scenario.make(
        name=f"exec-{tag}",
        graph=GraphSpec("random_regular", n=n, degree=4, seed=seed),
        algorithm="legal_coloring",
        params={"c": 2, "quality": "linear"},
    )


def sweep(count: int) -> list:
    return [scenario(str(i), seed=i) for i in range(count)]


def stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "wall_time"}


def fault_free(scenarios) -> list:
    results = ExperimentRunner(cache_dir=None, max_workers=0).run(scenarios)
    assert all(r.ok for r in results)
    return [stable(r.payload) for r in results]


def request_for(scenarios, pending=None, **options):
    """An :class:`ExecutionRequest` whose completions land in ``.done``."""
    done = []
    request = ExecutionRequest(
        scenarios=scenarios,
        pending=list(range(len(scenarios))) if pending is None else pending,
        complete=lambda index, outcome: done.append((index, outcome)),
        stats=SweepStats(scenarios=len(scenarios)),
        **options,
    )
    request.done = done
    return request


@pytest.fixture
def dispatch(monkeypatch):
    """Record which executor the runner picks (and with how many workers).

    Both recorders run the real serial executor, so the sweep still
    completes without starting a pool.
    """
    calls = []

    def recorder(name):
        def execute(request):
            calls.append((name, request.workers, list(request.pending)))
            execute_serial(request)

        return execute

    monkeypatch.setattr(runner_module, "execute_serial", recorder("serial"))
    monkeypatch.setattr(runner_module, "execute_pool", recorder("pool"))
    return calls


def flaky(monkeypatch, failures: int) -> list:
    """Register algorithm ``"flaky"``: its first ``failures`` runs raise, then
    it runs ``legal_coloring``.  Returns the list its calls are logged to."""
    calls = []

    def runner(network, params, engine):
        calls.append(None)
        if len(calls) <= failures:
            raise RuntimeError(f"boom {len(calls)}")
        return ALGORITHMS["legal_coloring"](network, params, engine)

    monkeypatch.setitem(ALGORITHMS, "flaky", runner)
    return calls


class TestDispatchRule:
    @pytest.mark.parametrize(
        "max_workers, count, expected",
        [
            (0, 3, "serial"),
            (0, 1, "serial"),
            (1, 3, "pool"),
            (2, 3, "pool"),
            (4, 3, "pool"),
            (2, 1, "pool"),
            (4, 1, "pool"),
        ],
    )
    def test_in_process_only_at_zero_workers(self, dispatch, max_workers, count, expected):
        results = ExperimentRunner(cache_dir=None, max_workers=max_workers).run(
            sweep(count)
        )
        assert all(r.ok for r in results)
        assert dispatch == [(expected, max_workers, list(range(count)))]

    @pytest.mark.parametrize(
        "cpus, count, expected",
        [(1, 3, ("pool", 1)), (4, 3, ("pool", 3)), (2, 5, ("pool", 2))],
    )
    def test_default_workers_follow_cpu_count_capped_by_pending(
        self, dispatch, monkeypatch, cpus, count, expected
    ):
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: cpus)
        ExperimentRunner(cache_dir=None).run(sweep(count))
        ((name, workers, _),) = dispatch
        assert (name, workers) == expected

    def test_duplicates_count_once_toward_pending(self, dispatch):
        s = scenario("dup")
        first, second = ExperimentRunner(cache_dir=None, max_workers=4).run([s, s])
        assert dispatch == [("pool", 4, [0])]
        assert first.payload == second.payload

    def test_cache_hits_do_not_count_toward_pending(self, dispatch, tmp_path):
        scenarios = sweep(2)
        ExperimentRunner(cache_dir=tmp_path, max_workers=0).run(scenarios[:1])
        dispatch.clear()
        results = ExperimentRunner(cache_dir=tmp_path, max_workers=4).run(scenarios)
        assert dispatch == [("pool", 4, [1])]
        assert [r.cached for r in results] == [True, False]

    def test_fully_cached_sweep_executes_nothing(self, dispatch, tmp_path):
        scenarios = sweep(2)
        ExperimentRunner(cache_dir=tmp_path, max_workers=0).run(scenarios)
        dispatch.clear()
        results = ExperimentRunner(cache_dir=tmp_path, max_workers=4).run(scenarios)
        assert dispatch == []
        assert all(r.cached for r in results)


class TestExecuteSerial:
    def test_completes_each_pending_index_once_in_order(self):
        scenarios = sweep(4)
        request = request_for(scenarios, pending=[3, 0, 2])
        execute_serial(request)
        assert [index for index, _ in request.done] == [3, 0, 2]
        expected = fault_free(scenarios)
        for index, outcome in request.done:
            assert outcome.status == "ok" and outcome.attempts == 1
            assert stable(outcome.payload) == expected[index]

    def test_transient_error_is_retried_and_charged(self, monkeypatch):
        scenarios = sweep(2)
        expected = fault_free(scenarios)
        calls = flaky(monkeypatch, failures=1)
        scenarios[1] = replace(scenarios[1], algorithm="flaky")
        request = request_for(scenarios, retries=2)
        execute_serial(request)
        assert len(calls) == 2
        assert [o.attempts for _, o in request.done] == [1, 2]
        assert all(o.status == "ok" for _, o in request.done)
        assert [stable(o.payload) for _, o in request.done] == expected
        assert request.stats.retries == 1

    def test_exhausted_retries_complete_as_failed(self, monkeypatch):
        calls = flaky(monkeypatch, failures=99)
        request = request_for([replace(scenario("0"), algorithm="flaky")], retries=1)
        execute_serial(request)
        ((index, outcome),) = request.done
        assert (index, outcome.status, outcome.attempts) == (0, "failed", 2)
        assert outcome.payload is None
        assert outcome.error == "RuntimeError: boom 2"
        assert len(calls) == 2
        assert request.stats.retries == 1

    def test_invalid_scenario_propagates(self):
        bad = Scenario.make(
            name="bad",
            graph=GraphSpec("random_regular", n=10, degree=3, seed=0),
            algorithm="no-such-algorithm",
        )
        request = request_for([bad])
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            execute_serial(request)
        assert request.done == []


class TestExecutePool:
    def test_pool_payloads_match_serial(self):
        scenarios = sweep(3)
        request = request_for(scenarios, workers=2)
        execute_pool(request)
        assert sorted(index for index, _ in request.done) == [0, 1, 2]
        by_index = dict(request.done)
        assert [stable(by_index[i].payload) for i in range(3)] == fault_free(
            scenarios
        )
        assert request.stats.pool_rebuilds == 0

    @pytest.mark.parametrize("previous", [None, "[]"])
    def test_fault_plan_env_is_restored(self, monkeypatch, previous):
        if previous is None:
            monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        else:
            monkeypatch.setenv(FAULT_PLAN_ENV, previous)
        plan = FaultPlan((FaultSpec(index=0, kind="error", attempts=1),))
        request = request_for(sweep(2), workers=2, retries=1, fault_plan=plan)
        execute_pool(request)
        by_index = dict(request.done)
        assert (by_index[0].status, by_index[0].attempts) == ("ok", 2)
        assert os.environ.get(FAULT_PLAN_ENV) == previous

    @pytest.mark.parametrize("broken_at", [1, 3])
    def test_pool_broken_during_submission_is_rebuilt(self, monkeypatch, broken_at):
        # A worker crash can break the pool while the parent is still
        # submitting (the first generation's submissions, or a retry's).
        # The failed submit loses the pool like a broken future does:
        # rebuild, charge the unfinished work, complete every scenario.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submits = []

        class BreaksOnce(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args[2])
                if len(submits) == broken_at:
                    raise BrokenProcessPool("a worker died during submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", BreaksOnce)
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        scenarios = sweep(2)
        plan = FaultPlan((FaultSpec(index=0, kind="error", attempts=1),))
        request = request_for(scenarios, workers=2, retries=3, fault_plan=plan)
        execute_pool(request)
        by_index = dict(request.done)
        assert sorted(by_index) == [0, 1]
        assert all(outcome.status == "ok" for outcome in by_index.values())
        assert [stable(by_index[i].payload) for i in range(2)] == fault_free(scenarios)
        assert request.stats.pool_rebuilds == 1
