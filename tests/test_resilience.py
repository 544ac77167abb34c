"""The fault matrix: :mod:`repro.resilience` + the hardened ExperimentRunner.

Every fault-matrix test here drives a real process pool under a
deterministic :class:`FaultPlan` and asserts the runner's contract: a
faulted sweep either completes every scenario with ``status="ok"`` and a
payload bit-identical to a fault-free run, or attributes the failure on the
:class:`ScenarioResult` -- it never aborts the sweep.  The in-process loop
(``max_workers=0``) takes no fault plan; its retry and capture rules are
checked with a raising algorithm.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import (
    CacheIntegrityWarning,
    ExperimentRunner,
    GraphSpec,
    ResultCache,
    Scenario,
    payload_digest,
)
from repro.experiments.scenarios import ALGORITHMS
from repro.local_model.kernels import _c_backend
from repro.resilience import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)


def scenario(tag: str, degree: int = 4, n: int = 32, engine: str = "vectorized") -> Scenario:
    return Scenario.make(
        name=f"res-{tag}-d{degree}-n{n}",
        graph=GraphSpec("random_regular", n=n, degree=degree, seed=7),
        algorithm="legal_coloring",
        params={"c": 2, "quality": "linear"},
        engine=engine,
    )


def sweep(count: int = 6) -> list:
    return [scenario(str(i), degree=4, n=24 + 4 * i) for i in range(count)]


def stable(payload: dict) -> dict:
    """A payload with its run-dependent wall clock stripped, for equality."""
    return {k: v for k, v in payload.items() if k != "wall_time"}


def fault_free(scenarios) -> list:
    """Reference payloads from a clean serial run (no cache, no faults)."""
    results = ExperimentRunner(cache_dir=None, max_workers=0).run(scenarios)
    assert all(r.ok for r in results)
    return [stable(r.payload) for r in results]


class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        kwargs = dict(
            num_scenarios=64, crash_rate=0.1, hang_rate=0.1, error_rate=0.2
        )
        assert FaultPlan.seeded(5, **kwargs) == FaultPlan.seeded(5, **kwargs)
        assert FaultPlan.seeded(5, **kwargs) != FaultPlan.seeded(6, **kwargs)

    def test_seeded_plan_covers_requested_kinds(self):
        plan = FaultPlan.seeded(
            1, num_scenarios=200, crash_rate=0.2, hang_rate=0.2, corrupt_rate=0.2
        )
        kinds = {spec.kind for spec in plan.specs}
        assert kinds == {"crash", "hang", "corrupt"}
        assert all(0 <= spec.index < 200 for spec in plan.specs)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, num_scenarios=4, crash_rate=0.7, hang_rate=0.7)

    @pytest.mark.parametrize(
        "rates",
        [
            {"crash_rate": float("nan")},
            {"corrupt_rate": float("nan"), "error_rate": 0.5},
            {"crash_rate": -0.5, "error_rate": 1.5},
            {"hang_rate": -0.1},
            {"error_rate": 1.5},
            {"crash_rate": float("inf")},
        ],
        ids=["nan", "nan-beside-valid", "negative-offsets-excess", "negative", "above-one", "inf"],
    )
    def test_rates_outside_unit_interval_rejected(self, rates):
        # NaN fails every comparison, and a negative rate can offset one
        # above 1 under the sum check: each rate is checked on its own.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan.seeded(1, num_scenarios=5, **rates)

    def test_boundary_rates_accepted(self):
        assert FaultPlan.seeded(1, num_scenarios=5, error_rate=0.0) == FaultPlan()
        plan = FaultPlan.seeded(1, num_scenarios=5, error_rate=1.0)
        assert [spec.kind for spec in plan.specs] == ["error"] * 5

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultSpec(index=0, kind="crash", attempts=2),
                FaultSpec(index=3, kind="hang", hang_seconds=1.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_spec_fires_only_below_its_attempt_budget(self):
        plan = FaultPlan((FaultSpec(index=2, kind="error", attempts=2),))
        assert plan.spec_for(2, 0) is not None
        assert plan.spec_for(2, 1) is not None
        assert plan.spec_for(2, 2) is None
        assert plan.spec_for(1, 0) is None

    def test_seeded_plan_is_pinned(self):
        """The smoke plan (``benchmarks/fault_smoke.py``) is fixed for good:
        ``seeded`` rolls the kinds cumulatively in ``FAULT_KINDS`` order, so
        changing that tuple's prefix would silently reshuffle every plan."""
        plan = FaultPlan.seeded(
            69,
            8,
            crash_rate=0.25,
            hang_rate=0.15,
            error_rate=0.25,
            corrupt_rate=0.15,
            hang_seconds=60.0,
        )
        assert plan.specs == tuple(
            FaultSpec(index=index, kind=kind, hang_seconds=60.0)
            for index, kind in (
                (0, "corrupt"),
                (1, "crash"),
                (2, "crash"),
                (3, "error"),
                (4, "hang"),
                (6, "corrupt"),
            )
        )

    def test_plan_with_retired_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="worker_die"):
            FaultPlan.from_json('[{"index": 0, "kind": "worker_die"}]')
        with pytest.raises(ValueError, match="lose_backend"):
            FaultPlan.from_json('[{"index": 0, "kind": "lose_backend"}]')

    def test_unknown_kind_and_bad_attempts_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(index=0, kind="meltdown")
        with pytest.raises(ValueError):
            FaultSpec(index=0, kind="crash", attempts=0)

    def test_injector_from_env_absent(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultInjector.from_env() is None

    def test_corrupt_mutates_payload_after_digest(self):
        injector = FaultInjector(FaultPlan((FaultSpec(index=0, kind="corrupt"),)))
        payload = {"rounds": 3, "coloring_digest": "a" * 64}
        digest = payload_digest(payload)
        assert injector.corrupt_payload(0, 0, payload)
        assert payload_digest(payload) != digest


class TestScenarioResultProtocol:
    """Regression: dunder probes must not be answered from the payload."""

    @pytest.fixture(scope="class")
    def result(self):
        (result,) = ExperimentRunner(cache_dir=None, max_workers=0).run(
            [scenario("proto", n=16)]
        )
        return result

    def test_payload_attributes_fall_through(self, result):
        assert result.rounds == result.payload["rounds"]
        with pytest.raises(AttributeError):
            result.no_such_payload_key

    def test_dunder_lookup_raises_attribute_error(self, result):
        with pytest.raises(AttributeError):
            result.__no_such_dunder__

    def test_pickle_round_trip(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.payload == result.payload
        assert clone.status == "ok" and clone.ok

    def test_deepcopy(self, result):
        clone = copy.deepcopy(result)
        assert clone.payload == result.payload
        assert clone.scenario == result.scenario

    def test_failed_result_has_no_payload_attributes(self):
        from repro.experiments.runner import ScenarioResult

        failed = ScenarioResult(
            scenario=scenario("failed"),
            payload=None,
            cached=False,
            status="failed",
            error="InjectedFaultError: boom",
            attempts=3,
        )
        assert not failed.ok
        with pytest.raises(AttributeError):
            failed.rounds
        clone = pickle.loads(pickle.dumps(failed))
        assert clone.status == "failed" and clone.error == failed.error


class TestSerialResilience:
    def test_always_raising_scenario_is_charged_retries_plus_one(self, tmp_path, monkeypatch):
        calls = []

        def broken(network, params, engine):
            calls.append(None)
            raise RuntimeError("always broken")

        monkeypatch.setitem(ALGORITHMS, "broken", broken)
        scenarios = sweep(3)
        scenarios[1] = Scenario.make(name="broken", graph=scenarios[1].graph, algorithm="broken")
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0, retries=2)
        results = runner.run(scenarios)
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert (results[1].attempts, len(calls)) == (3, 3)
        assert results[1].error == "RuntimeError: always broken"
        assert results[1].payload is None
        stats = runner.last_stats
        assert (stats.retries, stats.failures, stats.fresh) == (2, 1, 2)
        # The failure is not cached: a healthy re-run recomputes only it.
        monkeypatch.setitem(ALGORITHMS, "broken", ALGORITHMS["legal_coloring"])
        healthy = ExperimentRunner(cache_dir=tmp_path, max_workers=0).run(scenarios)
        assert all(r.ok for r in healthy)
        assert [r.cached for r in healthy] == [True, False, True]

    def test_invalid_parameter_error_propagates_without_retry(self, monkeypatch):
        calls = []

        def invalid(network, params, engine):
            calls.append(None)
            raise InvalidParameterError("caller bug")

        monkeypatch.setitem(ALGORITHMS, "invalid", invalid)
        bad = Scenario.make(name="invalid", graph=sweep(1)[0].graph, algorithm="invalid")
        runner = ExperimentRunner(cache_dir=None, max_workers=0, retries=5)
        with pytest.raises(InvalidParameterError, match="caller bug"):
            runner.run([bad])
        assert len(calls) == 1

    def test_invalid_parameters_still_propagate(self, tmp_path):
        bad = Scenario.make(
            name="bad",
            graph=GraphSpec("random_regular", n=10, degree=3, seed=0),
            algorithm="no-such-algorithm",
        )
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0, retries=5)
        with pytest.raises(InvalidParameterError):
            runner.run([bad])

    def test_write_through_checkpoints_each_scenario(self, tmp_path):
        """Killing the sweep after scenario k leaves k results on disk."""
        scenarios = sweep(4)
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0)

        class Killed(Exception):
            pass

        def killer(done, total, s, cached):
            if done == 2:
                raise Killed()

        with pytest.raises(Killed):
            runner.run(scenarios, on_progress=killer)
        assert len(runner.cache) == 2

        # Resume: the two finished scenarios are honest cache hits; only the
        # unfinished two execute.
        resumed = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        results = resumed.run(scenarios)
        assert all(r.ok for r in results)
        assert [r.cached for r in results] == [True, True, False, False]
        assert resumed.last_stats.cache_hits == 2
        assert resumed.last_stats.fresh == 2


class TestPoolFaultMatrix:
    def test_acceptance_matrix_completes_bit_identical(self, tmp_path):
        """The ISSUE's acceptance scenario: crashes + hang + corruption.

        Two scenarios crash their workers, one hangs past the soft timeout,
        one returns a corrupted payload -- and the sweep still completes
        every scenario ``ok`` with payloads bit-identical to a fault-free
        run, with the retries/rebuilds visible in the stats.
        """
        scenarios = sweep(6)
        reference = fault_free(scenarios)
        plan = FaultPlan(
            (
                FaultSpec(index=0, kind="crash", attempts=1),
                FaultSpec(index=3, kind="crash", attempts=2),
                FaultSpec(index=1, kind="hang", attempts=1, hang_seconds=60.0),
                FaultSpec(index=4, kind="corrupt", attempts=1),
            )
        )
        runner = ExperimentRunner(
            cache_dir=tmp_path,
            max_workers=2,
            retries=3,
            timeout=5.0,
            fault_plan=plan,
        )
        results = runner.run(scenarios)
        assert [r.status for r in results] == ["ok"] * 6
        assert [stable(r.payload) for r in results] == reference
        assert runner.last_stats.retries > 0
        assert runner.last_stats.pool_rebuilds >= 1
        # No corrupted payload leaked through the integrity check.
        assert all("_injected_corruption" not in r.payload for r in results)
        # The fault plan env propagation cleaned up after itself.
        assert FAULT_PLAN_ENV not in os.environ

    def test_broken_pool_is_rebuilt_and_work_resubmitted(self, tmp_path):
        scenarios = sweep(4)
        plan = FaultPlan((FaultSpec(index=2, kind="crash", attempts=1),))
        runner = ExperimentRunner(
            cache_dir=tmp_path, max_workers=2, retries=3, fault_plan=plan
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert runner.last_stats.pool_rebuilds >= 1
        assert runner.last_stats.retries >= 1

    def test_hang_trips_soft_timeout_then_retry_succeeds(self, tmp_path):
        scenarios = sweep(3)
        plan = FaultPlan(
            (FaultSpec(index=1, kind="hang", attempts=1, hang_seconds=60.0),)
        )
        runner = ExperimentRunner(
            cache_dir=tmp_path, max_workers=2, retries=2, timeout=1.0, fault_plan=plan
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert runner.last_stats.timeouts >= 1
        assert runner.last_stats.pool_rebuilds >= 1

    def test_scenarios_queued_behind_a_hang_are_not_charged(self, tmp_path):
        """One worker: the scenarios waiting behind a hung one never ran.

        ``ProcessPoolExecutor`` reports a queued future as running once it
        enters the call queue, so only the hung scenario may time out.
        """
        scenarios = sweep(4)
        plan = FaultPlan((FaultSpec(index=0, kind="hang", attempts=1, hang_seconds=60.0),))
        runner = ExperimentRunner(
            cache_dir=tmp_path, max_workers=1, retries=2, timeout=1.0, fault_plan=plan
        )
        results = runner.run(scenarios)
        assert [r.status for r in results] == ["ok"] * 4
        assert [r.attempts for r in results] == [2, 1, 1, 1]
        assert runner.last_stats.timeouts == 1
        assert runner.last_stats.retries == 1

    def test_permanent_hang_is_attributed_as_timeout(self, tmp_path):
        scenarios = sweep(2)
        plan = FaultPlan(
            (FaultSpec(index=0, kind="hang", attempts=99, hang_seconds=60.0),)
        )
        runner = ExperimentRunner(
            cache_dir=tmp_path, max_workers=2, retries=1, timeout=1.0, fault_plan=plan
        )
        results = runner.run(scenarios)
        assert results[0].status == "failed"
        assert "soft timeout" in results[0].error
        assert results[1].ok

    def test_permanent_crasher_fails_alone_innocents_complete(self, tmp_path):
        scenarios = sweep(3)
        plan = FaultPlan((FaultSpec(index=0, kind="crash", attempts=99),))
        runner = ExperimentRunner(
            cache_dir=tmp_path, max_workers=2, retries=1, fault_plan=plan
        )
        results = runner.run(scenarios)
        assert results[0].status == "failed"
        assert "crashed" in results[0].error
        assert results[1].ok and results[2].ok

    def test_statuses_attempts_and_errors_are_pinned(self):
        """A permanent error and a permanent hang fail after ``retries + 1``
        attempts each, with these exact error strings."""
        plan = FaultPlan(
            specs=(
                FaultSpec(index=1, kind="error", attempts=99),
                FaultSpec(index=2, kind="hang", attempts=99, hang_seconds=30.0),
            )
        )
        runner = ExperimentRunner(
            cache_dir=None, max_workers=2, retries=1, timeout=0.75, fault_plan=plan
        )
        results = runner.run(sweep(3))
        stats = runner.last_stats
        assert [r.status for r in results] == ["ok", "failed", "failed"]
        assert [r.attempts for r in results] == [1, 2, 2]
        assert results[1].error == (
            "InjectedFaultError: injected worker error at scenario 1, attempt 1"
        )
        assert results[2].error == "soft timeout: no result within 0.75s (worker hung)"
        assert stats.timeouts >= 1
        assert stats.failures == 2 and stats.fresh == 1

    def test_kill_and_resume_only_reruns_unfinished(self, tmp_path):
        """Checkpoint/resume across a hard sweep death (pool path)."""
        scenarios = sweep(5)

        class Killed(Exception):
            pass

        def killer(done, total, s, cached):
            if done == 3:
                raise Killed()

        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=2)
        with pytest.raises(Killed):
            runner.run(scenarios, on_progress=killer)
        on_disk = len(runner.cache)
        assert on_disk >= 3  # write-through happened before the death

        resumed = ExperimentRunner(cache_dir=tmp_path, max_workers=2)
        results = resumed.run(scenarios)
        assert all(r.ok for r in results)
        assert resumed.last_stats.cache_hits == on_disk
        assert resumed.last_stats.fresh == len(scenarios) - on_disk


class TestCacheIntegrity:
    def test_tampered_payload_is_quarantined_and_recomputed(self, tmp_path):
        s = scenario("tamper", n=16)
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        runner.run([s])
        cache = runner.cache
        path = cache._path(s.cache_token())
        entry = path.read_text()
        path.write_text(entry.replace('"rounds": ', '"rounds": 99'))

        # The sweep quarantines the tampered entry, warns, and transparently
        # recomputes and repopulates it.
        rerun = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        with pytest.warns(CacheIntegrityWarning):
            (result,) = rerun.run([s])
        assert result.ok and not result.cached
        # The tampered file was moved aside (write-through then re-created a
        # good entry at the same path); the quarantined copy keeps its name.
        assert (rerun.cache.quarantine_root / path.name).exists()
        assert rerun.cache.quarantined == 1
        (again,) = ExperimentRunner(cache_dir=tmp_path, max_workers=0).run([s])
        assert again.cached

    def test_unparseable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"k": 1}, {"rounds": 3})
        path = cache._path("ab" * 32)
        path.write_text("{not json")
        with pytest.warns(CacheIntegrityWarning):
            assert cache.get("ab" * 32) is None
        assert (cache.quarantine_root / path.name).exists()

    def test_warning_fires_once_per_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        for token in ("aa" * 32, "bb" * 32):
            cache.put(token, {"k": 1}, {"rounds": 3})
            cache._path(token).write_text("{not json")
        with pytest.warns(CacheIntegrityWarning):
            cache.get("aa" * 32)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert cache.get("bb" * 32) is None  # no second warning
        assert cache.quarantined == 2

    def test_entries_carry_payload_digests(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        payload = {"rounds": 5, "palette": 9}
        cache.put("cd" * 32, {"k": 2}, payload)
        entry = json.loads(cache._path("cd" * 32).read_text())
        assert entry["sha256"] == payload_digest(payload)

    def test_digest_mismatch_warning_names_both_digests(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        token = "ee" * 32
        cache.put(token, {"k": 1}, {"rounds": 3})
        path = cache._path(token)
        entry = json.loads(path.read_text())
        entry["payload"]["rounds"] = 99  # tamper without updating sha256
        path.write_text(json.dumps(entry))
        stored = entry["sha256"]
        actual = payload_digest(entry["payload"])
        with pytest.warns(CacheIntegrityWarning) as caught:
            assert cache.get(token) is None
        message = str(caught[0].message)
        # Both digests appear, so multi-worker corruption is attributable.
        assert stored in message and actual in message

    def test_quarantine_is_capped_to_newest_entries(self, tmp_path):
        import warnings as _warnings

        cache = ResultCache(tmp_path, quarantine_keep=3)
        tokens = [f"{i:02x}" * 32 for i in range(8)]
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", CacheIntegrityWarning)
            for i, token in enumerate(tokens):
                cache.put(token, {"k": 1}, {"rounds": 3})
                path = cache._path(token)
                path.write_text("{not json")
                os.utime(path, (i, i))  # distinct mtimes, oldest first
                assert cache.get(token) is None
        kept = sorted(p.name for p in cache.quarantine_root.iterdir())
        assert len(kept) == 3
        # The newest three survived the pruning.
        assert kept == sorted(f"{token}.json" for token in tokens[-3:])
        assert cache.quarantined == 8

    def test_quarantine_keep_is_configurable_and_defaults(self, tmp_path):
        from repro.experiments import DEFAULT_QUARANTINE_KEEP

        assert ResultCache(tmp_path).quarantine_keep == DEFAULT_QUARANTINE_KEEP
        assert ResultCache(tmp_path, quarantine_keep=0).quarantine_keep == 0


class TestCompileHardening:
    def test_compile_timeout_env_parsing(self, monkeypatch):
        monkeypatch.delenv(_c_backend._COMPILE_TIMEOUT_ENV, raising=False)
        assert _c_backend._compile_timeout() == _c_backend._COMPILE_TIMEOUT_DEFAULT
        monkeypatch.setenv(_c_backend._COMPILE_TIMEOUT_ENV, "7.5")
        assert _c_backend._compile_timeout() == 7.5
        monkeypatch.setenv(_c_backend._COMPILE_TIMEOUT_ENV, "0.01")
        assert _c_backend._compile_timeout() == 1.0  # floor
        monkeypatch.setenv(_c_backend._COMPILE_TIMEOUT_ENV, "not-a-number")
        assert _c_backend._compile_timeout() == _c_backend._COMPILE_TIMEOUT_DEFAULT

    def test_failed_compile_is_memoized(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_c_backend, "_build_dir", lambda: tmp_path)
        calls = []

        def hanging_run(command, **kwargs):
            calls.append(command)
            raise subprocess.TimeoutExpired(cmd=command, timeout=kwargs["timeout"])

        monkeypatch.setattr(_c_backend.subprocess, "run", hanging_run)
        assert _c_backend._compile(_c_backend._SOURCE_TEXT, "cc", use_openmp=False) is None
        assert len(calls) == 1
        memos = list(tmp_path.glob("*.failed"))
        assert len(memos) == 1
        assert "TimeoutExpired" in memos[0].read_text()
        # Second attempt consults the memo: the compiler is not re-invoked.
        assert _c_backend._compile(_c_backend._SOURCE_TEXT, "cc", use_openmp=False) is None
        assert len(calls) == 1
        # Removing the memo retries the build.
        memos[0].unlink()
        assert _c_backend._compile(_c_backend._SOURCE_TEXT, "cc", use_openmp=False) is None
        assert len(calls) == 2
