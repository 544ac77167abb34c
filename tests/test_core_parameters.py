"""Unit tests for the Legal-Color parameter presets."""

from __future__ import annotations

import pytest

from repro.core.parameters import (
    LegalColorParameters,
    implied_color_exponent,
    params_for_few_rounds,
    params_for_linear_colors,
    params_for_quality,
    params_for_subpolynomial_rounds,
)
from repro.exceptions import InvalidParameterError


class TestLinearColorsPreset:
    def test_constraints_hold_when_recursion_runs(self):
        for delta in (64, 256, 1024, 4096):
            params = params_for_linear_colors(delta, c=2, epsilon=0.75)
            if delta > params.threshold:
                assert params.b * params.p <= delta
                assert params.p > 4  # > 2c for c = 2
            params.validate(delta, c=2)

    def test_scaling_with_delta(self):
        small = params_for_linear_colors(64, c=2)
        large = params_for_linear_colors(4096, c=2)
        assert large.p >= small.p
        assert large.threshold >= small.threshold

    def test_threshold_grows_like_delta_to_epsilon(self):
        params = params_for_linear_colors(2**12, c=2, epsilon=0.5)
        assert params.threshold >= 2**6
        assert params.threshold <= 2**9

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            params_for_linear_colors(100, c=2, epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            params_for_linear_colors(100, c=2, epsilon=1.5)

    def test_invalid_c(self):
        with pytest.raises(InvalidParameterError):
            params_for_linear_colors(100, c=0)


class TestFewRoundsPreset:
    def test_parameters_are_delta_independent(self):
        first = params_for_few_rounds(100, c=2)
        second = params_for_few_rounds(100_000, c=2)
        assert (first.b, first.p, first.threshold) == (second.b, second.p, second.threshold)

    def test_p_exceeds_independence_requirement(self):
        for c in (1, 2, 3, 4):
            params = params_for_few_rounds(10_000, c=c)
            assert params.p > 4 * c

    def test_validation_passes_for_large_delta(self):
        params = params_for_few_rounds(10_000, c=2)
        params.validate(10_000, c=2)

    def test_explicit_p_and_b(self):
        params = params_for_few_rounds(1000, c=2, p=27, b=3)
        assert params.p == 27
        assert params.b == 3


class TestSubpolynomialPreset:
    def test_threshold_polylogarithmic(self):
        params = params_for_subpolynomial_rounds(2**20, c=2, eta=0.5)
        assert params.threshold <= 64

    def test_validation(self):
        params = params_for_subpolynomial_rounds(2**16, c=2)
        params.validate(2**16, c=2)

    def test_invalid_eta(self):
        with pytest.raises(InvalidParameterError):
            params_for_subpolynomial_rounds(100, c=2, eta=0)


class TestQualityTable:
    def test_names_map_to_the_presets(self):
        assert params_for_quality("linear", 300, 2, 0.5) == params_for_linear_colors(
            300, 2, epsilon=0.5
        )
        assert params_for_quality("superlinear", 300, 2, 0.5) == params_for_few_rounds(300, 2)
        assert params_for_quality(
            "subpolynomial", 300, 2, 0.5
        ) == params_for_subpolynomial_rounds(300, 2, eta=0.5)

    def test_unknown_quality_message(self):
        from repro import graphs
        from repro.core import color_edges, color_vertices, plan_edge_coloring

        network = graphs.random_regular(16, 4, seed=3)
        for call in (
            lambda: params_for_quality("bogus", 8, 2),
            lambda: color_edges(network, quality="bogus"),
            lambda: color_vertices(network, 2, quality="bogus"),
            lambda: plan_edge_coloring(network, "bogus"),
        ):
            with pytest.raises(InvalidParameterError, match=r"^unknown quality 'bogus'$"):
                call()


class TestValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            LegalColorParameters(b=0, p=4, threshold=4, description="x").validate(100, 2)
        with pytest.raises(InvalidParameterError):
            LegalColorParameters(b=1, p=200, threshold=4, description="x").validate(100, 2)
        with pytest.raises(InvalidParameterError):
            LegalColorParameters(b=1, p=3, threshold=4, description="x").validate(100, 2)

    def test_small_delta_skips_recursion_constraints(self):
        # Below the threshold the recursion never runs, so even "invalid"
        # b/p combinations are acceptable.
        LegalColorParameters(b=1, p=3, threshold=500, description="x").validate(100, 2)


class TestImpliedExponent:
    def test_linear_preset_has_finite_exponent(self):
        # The generic per-level estimate is pessimistic for the linear preset
        # (its O(Delta) palette comes from the Lemma 4.4 telescoping, not from
        # this formula), but the recursion must at least be shrinking.
        params = params_for_linear_colors(4096, c=2, epsilon=0.75)
        exponent = implied_color_exponent(params, c=2)
        assert exponent != float("inf")
        assert exponent < 3.0

    def test_larger_p_means_smaller_exponent(self):
        small_p = params_for_few_rounds(10**6, c=2, p=9, b=2)
        large_p = params_for_few_rounds(10**6, c=2, p=81, b=2)
        assert implied_color_exponent(large_p, 2) < implied_color_exponent(small_p, 2)

    def test_non_shrinking_parameters_report_infinity(self):
        params = LegalColorParameters(b=1, p=2, threshold=5, description="x")
        assert implied_color_exponent(params, c=2) == float("inf")


class TestIndependenceBound:
    """``c`` is checked once, as an integer, before any entry point runs."""

    @staticmethod
    def _entry_points(engine):
        from repro import graphs
        from repro.core import (
            color_vertices,
            randomized_color_vertices,
            run_defective_color,
            tradeoff_color_vertices,
        )

        network = graphs.random_geometric(300, 0.12, seed=1)
        return {
            "legal_coloring": lambda c: color_vertices(network, c=c, engine=engine),
            "tradeoff": lambda c: tradeoff_color_vertices(
                network, c=c, g=lambda delta: 2.0, engine=engine
            ),
            "randomized": lambda c: randomized_color_vertices(network, c=c, engine=engine),
            "defective_coloring": lambda c: run_defective_color(
                network, b=1, p=2, c=c, engine=engine
            ),
        }

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, False, 0, -2, "3", None])
    def test_every_entry_point_rejects_a_non_integer_or_small_c(self, bad, engine):
        for run in self._entry_points(engine).values():
            with pytest.raises(InvalidParameterError, match="c must be an integer"):
                run(bad)

    @pytest.mark.parametrize(
        "preset",
        [
            lambda c: params_for_linear_colors(100, c),
            lambda c: params_for_few_rounds(100, c),
            lambda c: params_for_subpolynomial_rounds(100, c),
            lambda c: implied_color_exponent(params_for_few_rounds(100, 2), c),
        ],
    )
    def test_presets_reject_a_non_integer_c(self, preset):
        for bad in (2.5, True, 0):
            with pytest.raises(InvalidParameterError, match="c must be an integer"):
                preset(bad)

    def test_numpy_integer_c_yields_python_int_parameters(self):
        import numpy as np

        from repro import graphs
        from repro.core import color_vertices
        from repro.core.parameters import independence_bound

        assert type(independence_bound(np.int64(3))) is int
        for preset in (
            params_for_linear_colors,
            params_for_few_rounds,
            params_for_subpolynomial_rounds,
        ):
            params = preset(100, np.int64(3))
            assert params == preset(100, 3)
            assert type(params.p) is int and type(params.threshold) is int
        result = color_vertices(graphs.random_geometric(300, 0.12, seed=1), c=np.int64(3))
        assert type(result.parameters.p) is int
