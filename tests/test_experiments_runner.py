"""Tests for :mod:`repro.experiments` -- the parallel, caching runner."""

from __future__ import annotations

import json

import pytest

import io

from repro.exceptions import InvalidParameterError
from repro.experiments import (
    CACHE_VERSION,
    ExperimentRunner,
    GraphSpec,
    ResultCache,
    Scenario,
    progress_ticker,
)
from repro.resilience import FaultPlan


def legal_scenario(degree=4, n=16, seed=1, engine="vectorized", **kwargs) -> Scenario:
    return Scenario.make(
        name=f"legal-d{degree}-n{n}-s{seed}",
        graph=GraphSpec("random_regular", n=n, degree=degree, seed=seed),
        algorithm="legal_coloring",
        params={"c": degree, "quality": "superlinear"},
        engine=engine,
        **kwargs,
    )


def sweep_scenarios(count_at_least=32):
    scenarios = []
    for degree in (2, 3, 4, 6):
        for seed in (0, 1):
            spec = GraphSpec("random_regular", n=16, degree=degree, seed=seed)
            scenarios.append(
                Scenario.make(
                    name=f"legal-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="legal_coloring",
                    params={"c": degree},
                )
            )
            scenarios.append(
                Scenario.make(
                    name=f"edge-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="edge_coloring",
                    params={"quality": "superlinear", "route": "direct"},
                )
            )
            scenarios.append(
                Scenario.make(
                    name=f"pr-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="panconesi_rizzi",
                )
            )
            scenarios.append(
                Scenario.make(
                    name=f"tradeoff-d{degree}-s{seed}",
                    graph=spec,
                    algorithm="tradeoff",
                    params={"c": degree, "g": "sqrt"},
                )
            )
    assert len(scenarios) >= count_at_least
    return scenarios


class TestParallelSweep:
    def test_32_scenarios_sharded_across_processes_with_caching(self, tmp_path):
        scenarios = sweep_scenarios(32)
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=4)

        results = runner.run(scenarios)
        assert len(results) == len(scenarios)
        # Results come back in input order, fresh and verified.
        assert [r.name for r in results] == [s.name for s in scenarios]
        assert all(not r.cached for r in results)
        assert all(r.verified for r in results)
        assert all(r.rounds > 0 for r in results)

        # Second pass: everything is served from the on-disk cache, verbatim.
        again = runner.run(scenarios)
        assert all(r.cached for r in again)
        for fresh, cached in zip(results, again):
            assert cached.payload == fresh.payload

    def test_cache_survives_runner_instances(self, tmp_path):
        scenario = legal_scenario()
        ExperimentRunner(cache_dir=tmp_path, max_workers=0).run([scenario])
        (hit,) = ExperimentRunner(cache_dir=tmp_path, max_workers=0).run([scenario])
        assert hit.cached

    def test_duplicate_scenarios_execute_once(self, tmp_path):
        scenario = legal_scenario()
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        first, second = runner.run([scenario, scenario])
        assert first.payload == second.payload
        # Only one cache entry was produced for the pair.
        assert len(runner.cache) == 1

    def test_without_cache_dir_everything_is_fresh(self):
        scenario = legal_scenario(n=12, degree=3, seed=2)
        runner = ExperimentRunner(cache_dir=None, max_workers=0)
        (first,) = runner.run([scenario])
        (second,) = runner.run([scenario])
        assert not first.cached and not second.cached
        assert first.coloring_digest == second.coloring_digest


class TestRunnerSettings:
    @pytest.mark.parametrize(
        "settings",
        [
            {"max_workers": -1},
            {"retries": -1},
            {"timeout": 0},
            {"timeout": -2.5},
            {"max_workers": 0, "timeout": 5.0},
            {"max_workers": 0, "fault_plan": FaultPlan()},
        ],
        ids=[
            "max_workers<0",
            "retries<0",
            "timeout=0",
            "timeout<0",
            "in-process-timeout",
            "in-process-fault_plan",
        ],
    )
    def test_invalid_settings_rejected_at_construction(self, settings):
        with pytest.raises(InvalidParameterError):
            ExperimentRunner(cache_dir=None, **settings)

    @pytest.mark.parametrize(
        "settings",
        [
            {"max_workers": 0},
            {"max_workers": None},
            {"retries": 0},
            {"timeout": None},
            {"timeout": 0.01},
        ],
        ids=["max_workers=0", "max_workers=None", "retries=0", "timeout=None",
             "timeout>0"],
    )
    def test_boundary_settings_accepted(self, settings):
        runner = ExperimentRunner(cache_dir=None, **settings)
        for name, value in settings.items():
            assert getattr(runner, name) == value

    def test_executor_is_chosen_by_max_workers_only(self):
        with pytest.raises(TypeError, match="backend"):
            ExperimentRunner(cache_dir=None, backend="serial")


class TestSweepProgress:
    """The optional per-scenario progress callback (off by default)."""

    @staticmethod
    def _scenarios(count=6):
        return [
            legal_scenario(degree=3, n=12, seed=seed) for seed in range(count)
        ]

    @pytest.mark.parametrize("max_workers", [0, 3])
    def test_callback_fires_once_per_scenario(self, tmp_path, max_workers):
        scenarios = self._scenarios()
        events = []
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=max_workers)
        runner.run(scenarios, on_progress=lambda *event: events.append(event))

        assert [done for done, _, _, _ in events] == list(range(1, len(scenarios) + 1))
        assert all(total == len(scenarios) for _, total, _, _ in events)
        assert {s.name for _, _, s, _ in events} == {s.name for s in scenarios}
        assert all(not cached for _, _, _, cached in events)

        # Second pass: everything is a cache hit and is reported as such.
        events.clear()
        runner.run(scenarios, on_progress=lambda *event: events.append(event))
        assert len(events) == len(scenarios)
        assert all(cached for _, _, _, cached in events)

    def test_duplicates_are_each_reported(self):
        scenario = legal_scenario(degree=3, n=12)
        events = []
        runner = ExperimentRunner(cache_dir=None, max_workers=0)
        runner.run([scenario, scenario], on_progress=lambda *e: events.append(e))
        assert [done for done, _, _, _ in events] == [1, 2]

    def test_off_by_default(self, tmp_path):
        # No callback anywhere: the sweep must run exactly as before.
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        assert runner.on_progress is None
        (result,) = runner.run([legal_scenario(degree=3, n=12)])
        assert result.rounds > 0

    def test_constructor_default_callback_is_used(self):
        events = []
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=0,
            on_progress=lambda *event: events.append(event),
        )
        runner.run([legal_scenario(degree=3, n=12)])
        assert [done for done, _, _, _ in events] == [1]

    def test_stderr_ticker_format(self):
        stream = io.StringIO()
        tick = progress_ticker(stream)
        runner = ExperimentRunner(cache_dir=None, max_workers=0, on_progress=tick)
        scenario = legal_scenario(degree=3, n=12)
        runner.run([scenario])
        assert stream.getvalue() == f"[1/1] {scenario.name}\n"


class TestScenarioAndCache:
    def test_unknown_algorithm_rejected(self):
        scenario = Scenario.make(
            name="bad",
            graph=GraphSpec("random_regular", n=10, degree=3, seed=0),
            algorithm="no-such-algorithm",
        )
        with pytest.raises(InvalidParameterError):
            ExperimentRunner(max_workers=0).run([scenario])

    @pytest.mark.parametrize(
        "algorithm",
        [
            "legal_coloring",
            "edge_coloring",
            "tradeoff",
            "randomized_coloring",
            "panconesi_rizzi",
            "luby_edge",
        ],
    )
    def test_runners_verify_through_the_color_column(self, algorithm, monkeypatch):
        # Every algorithm result carries a color column, so every runner
        # verifies through it -- never through the identifier mapping.
        import numpy as np

        import repro.verification as verification
        from repro.experiments.scenarios import ALGORITHMS

        seen = []
        for name in ("assert_legal_vertex_coloring", "assert_legal_edge_coloring"):
            oracle = getattr(verification, name)

            def spy(network, colors, *args, _oracle=oracle, **kwargs):
                seen.append(type(colors))
                return _oracle(network, colors, *args, **kwargs)

            monkeypatch.setattr(verification, name, spy)
        network = GraphSpec("random_regular", n=16, degree=4, seed=1).build()
        payload = ALGORITHMS[algorithm](network, {"c": 4}, "vectorized")
        assert payload["verified"] is True
        assert seen == [np.ndarray]

    def test_unknown_graph_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            GraphSpec("no-such-family", n=4).build()

    def test_cache_files_are_self_describing_json(self, tmp_path):
        scenario = legal_scenario()
        ExperimentRunner(cache_dir=tmp_path, max_workers=0).run([scenario])
        files = list((tmp_path / f"v{CACHE_VERSION}").glob("*/*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["key"] == scenario.key()
        assert entry["payload"]["rounds"] > 0

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        from repro.experiments import CacheIntegrityWarning

        cache = ResultCache(tmp_path)
        token = legal_scenario().cache_token()
        cache.put(token, {"k": 1}, {"rounds": 3})
        path = cache._path(token)
        path.write_text("{not json")
        with pytest.warns(CacheIntegrityWarning):
            assert cache.get(token) is None


class TestEngineCacheKeys:
    """Regression: cache tokens must always name the concrete engine.

    Results computed by one engine must never be served for another --
    in particular ``"vectorized"`` results can never collide with
    ``"reference"`` ones -- and a scenario
    built with ``engine=None`` must resolve to ``"vectorized"`` at
    construction, so its cache key names the engine that ran.
    """

    def test_tokens_differ_per_engine(self):
        tokens = {
            legal_scenario(engine=engine).cache_token()
            for engine in ("reference", "vectorized")
        }
        assert len(tokens) == 2

    @pytest.mark.parametrize("retired", ["batched", "compiled"])
    def test_retired_engine_names_rejected(self, retired):
        with pytest.raises(InvalidParameterError):
            legal_scenario(engine=retired)

    def test_engine_none_resolves_to_concrete_default(self):
        scenario = legal_scenario(engine=None)
        assert scenario.engine == "vectorized"
        assert scenario.key()["engine"] == "vectorized"
        assert scenario.cache_token() == scenario.with_engine("vectorized").cache_token()

    def test_with_engine_none_resolves_to_concrete_default(self):
        from repro.local_model.engine import DEFAULT_ENGINE

        scenario = legal_scenario(engine="reference").with_engine(None)
        assert scenario.engine == DEFAULT_ENGINE

    def test_directly_constructed_scenario_resolves_in_key(self):
        from repro.local_model.engine import DEFAULT_ENGINE

        scenario = Scenario(
            name="direct",
            graph=GraphSpec("random_regular", n=10, degree=3, seed=0),
            algorithm="legal_coloring",
            engine=None,
        )
        assert scenario.key()["engine"] == DEFAULT_ENGINE

    def test_vectorized_and_reference_cache_entries_coexist(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=0)
        reference = legal_scenario(engine="reference")
        vectorized = legal_scenario(engine="vectorized")
        first = runner.run([reference, vectorized])
        assert [r.cached for r in first] == [False, False]
        assert len(runner.cache) == 2
        again = runner.run([reference, vectorized])
        assert [r.cached for r in again] == [True, True]
        # Same deterministic algorithm, same graph: identical colorings.
        assert again[0].coloring_digest == again[1].coloring_digest
