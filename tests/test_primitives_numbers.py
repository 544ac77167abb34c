"""Unit tests for the arithmetic helpers."""

from __future__ import annotations


import pytest

from repro.exceptions import InvalidParameterError
from repro.primitives.numbers import (
    base_q_digits,
    ceil_div,
    ceil_log,
    defective_step_color,
    is_prime,
    log_star,
    next_prime,
    num_base_q_digits,
    poly_eval,
)


class TestPrimes:
    def test_small_primes(self):
        primes = [value for value in range(2, 60) if is_prime(value)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_non_primes(self):
        for value in (-5, 0, 1, 4, 9, 21, 49, 1001):
            assert not is_prime(value)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(90) == 97

    def test_next_prime_bertrand_window(self):
        # Bertrand's postulate: the next prime never exceeds 2 * value.
        for value in range(2, 500, 7):
            assert value <= next_prime(value) < 2 * value


class TestIntegerHelpers:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0
        assert ceil_div(1, 7) == 1

    def test_ceil_div_invalid_denominator(self):
        with pytest.raises(InvalidParameterError):
            ceil_div(5, 0)

    def test_ceil_log(self):
        assert ceil_log(1) == 0
        assert ceil_log(2) == 1
        assert ceil_log(9, base=3) == 2
        assert ceil_log(10, base=3) == 3

    def test_ceil_log_invalid(self):
        with pytest.raises(InvalidParameterError):
            ceil_log(0)
        with pytest.raises(InvalidParameterError):
            ceil_log(4, base=1)


class TestLogStar:
    def test_small_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 0
        assert log_star(4) == 1
        assert log_star(16) == 2
        assert log_star(2**16) == 3

    def test_astronomical_value_is_still_tiny(self):
        assert log_star(2.0**64) <= 5

    def test_monotone(self):
        values = [log_star(x) for x in (2, 10, 100, 10_000, 10**9)]
        assert values == sorted(values)


class TestBaseQAndPolynomials:
    def test_digit_round_trip(self):
        for value in range(0, 200, 7):
            digits = base_q_digits(value, q=7, num_digits=4)
            reconstructed = sum(d * 7**i for i, d in enumerate(digits))
            assert reconstructed == value

    def test_value_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            base_q_digits(100, q=3, num_digits=2)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(InvalidParameterError):
            base_q_digits(5, q=1, num_digits=2)
        with pytest.raises(InvalidParameterError):
            base_q_digits(-1, q=3, num_digits=2)
        with pytest.raises(InvalidParameterError):
            base_q_digits(5, q=3, num_digits=0)

    def test_num_base_q_digits(self):
        assert num_base_q_digits(1, 5) == 1
        assert num_base_q_digits(5, 5) == 1
        assert num_base_q_digits(6, 5) == 2
        assert num_base_q_digits(26, 5) == 3

    def test_poly_eval_matches_horner_by_hand(self):
        # p(x) = 2 + 3x + x^2 over GF(7)
        coefficients = [2, 3, 1]
        for point in range(7):
            expected = (2 + 3 * point + point * point) % 7
            assert poly_eval(coefficients, point, 7) == expected

    def test_distinct_polynomials_agree_on_few_points(self):
        # Two distinct degree-t polynomials agree on at most t points -- the
        # combinatorial fact behind Linial's algorithm.
        q = 11
        first = [3, 5, 2]
        second = [1, 5, 2]
        agreements = sum(
            1 for point in range(q) if poly_eval(first, point, q) == poly_eval(second, point, q)
        )
        assert agreements <= 2

    def test_poly_eval_invalid_modulus(self):
        with pytest.raises(InvalidParameterError):
            poly_eval([1, 2], 3, 1)


class TestDefectiveStepColor:
    """One recoloring step: ``(a, g(a))`` for the first fewest-collision point ``a``."""

    def test_first_free_point(self):
        # GF(5), colors 1..25 read as a + b x: own 2 + x (color 8) meets
        # 2 (color 3) at x = 0 and 3 + 2x (color 14) at x = 4; x = 1 is free.
        assert defective_step_color(8, [3, 14], 5, 2) == 1 * 5 + 3 + 1

    def test_same_colored_neighbors_never_collide(self):
        assert defective_step_color(8, [8, 8, 8], 5, 2) == 0 * 5 + 2 + 1

    def test_no_free_point_takes_the_first_fewest(self):
        # GF(2): own 0 (color 1) meets x (color 3) at 0 and 1 + x (color 4)
        # at 1, twice x at 0: point 1 has the fewest collisions.
        assert defective_step_color(1, [3, 4], 2, 2) == 0 * 2 + 0 + 1
        assert defective_step_color(1, [3, 3, 4], 2, 2) == 1 * 2 + 0 + 1
