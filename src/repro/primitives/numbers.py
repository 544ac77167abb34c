"""Arithmetic helpers: primes, base-``q`` expansions, the iterated log, and
the library's one seeded draw.

Linial's algorithm and the defective-coloring steps encode a color as the
coefficient vector of a polynomial over a prime field ``GF(q)``; this module
provides the small number-theoretic utilities those constructions need, the
one recoloring step both apply (:func:`defective_step_color`), and the
``log*`` function that appears throughout the paper's running-time bounds.
:func:`luby_draw`, a counter hash, serves Luby's rounds and the random split
of Theorem 6.1.
"""

from __future__ import annotations

import math
from typing import List

from repro.exceptions import InvalidParameterError


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division (``ceil(numerator / denominator)``)."""
    if denominator <= 0:
        raise InvalidParameterError("denominator must be positive")
    return -(-numerator // denominator)


def is_prime(value: int) -> bool:
    """Deterministic primality test (trial division, adequate for our sizes)."""
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def next_prime(value: int) -> int:
    """The smallest prime greater than or equal to ``value`` (at least 2)."""
    candidate = max(2, value)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def ceil_log(value: int, base: float = 2.0) -> int:
    """``ceil(log_base(value))`` for ``value >= 1`` (0 when ``value == 1``)."""
    if value < 1:
        raise InvalidParameterError("value must be at least 1")
    if base <= 1:
        raise InvalidParameterError("base must exceed 1")
    result = 0
    power = 1.0
    while power < value:
        power *= base
        result += 1
    return result


def log_star(value: float) -> int:
    """The iterated logarithm ``log* value`` (base 2), as defined in Section 2.

    ``log* value = min { i : log^(i) value <= 2 }``.
    """
    if value <= 2:
        return 0
    count = 0
    current = float(value)
    while current > 2:
        current = math.log2(current)
        count += 1
    return count


def base_q_digits(value: int, q: int, num_digits: int) -> List[int]:
    """The ``num_digits`` least-significant base-``q`` digits of ``value``.

    Used to interpret a color as the coefficient vector of a polynomial over
    ``GF(q)``: color ``value`` becomes the polynomial whose ``i``-th
    coefficient is the ``i``-th digit.
    """
    if q < 2:
        raise InvalidParameterError("base q must be at least 2")
    if num_digits < 1:
        raise InvalidParameterError("num_digits must be at least 1")
    if value < 0:
        raise InvalidParameterError("value must be non-negative")
    digits = []
    remaining = value
    for _ in range(num_digits):
        digits.append(remaining % q)
        remaining //= q
    if remaining:
        raise InvalidParameterError(
            f"value {value} does not fit in {num_digits} base-{q} digits"
        )
    return digits


def num_base_q_digits(max_value: int, q: int) -> int:
    """How many base-``q`` digits are needed to represent values ``< max_value``."""
    if max_value < 1:
        raise InvalidParameterError("max_value must be at least 1")
    if q < 2:
        raise InvalidParameterError("base q must be at least 2")
    digits = 1
    capacity = q
    while capacity < max_value:
        capacity *= q
        digits += 1
    return digits


def poly_eval(coefficients: List[int], point: int, q: int) -> int:
    """Evaluate the polynomial with the given coefficients at ``point`` over ``GF(q)``.

    ``coefficients[i]`` is the coefficient of ``x^i``.  Horner's rule, all
    arithmetic modulo ``q``.
    """
    if q < 2:
        raise InvalidParameterError("modulus q must be at least 2")
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * point + coefficient) % q
    return result


def defective_step_color(own_color, neighbor_colors, q: int, num_digits: int) -> int:
    """The color one polynomial recoloring step moves ``own_color`` to.

    Colors are read as polynomials over ``GF(q)`` (the ``num_digits`` base-q
    digits of ``color - 1``).  The node moves to ``(a, g(a))``, encoded as
    ``a * q + g(a) + 1``, for the first point ``a`` with the fewest
    collisions against neighbors holding a *different* color.  Kuhn's
    defective step bounds that minimum by its defect budget; the
    ``q > Delta * t`` of Linial's round makes it 0, so that round is this
    step with a collision-free point guaranteed.
    """
    own_color = int(own_color)
    own_coeffs = base_q_digits(own_color - 1, q, num_digits)
    neighbor_coeffs = [
        base_q_digits(int(color) - 1, q, num_digits)
        for color in neighbor_colors
        if int(color) != own_color
    ]
    best_point, best_collisions = 0, None
    for point in range(q):
        own_value = poly_eval(own_coeffs, point, q)
        collisions = sum(
            1 for coeffs in neighbor_coeffs if poly_eval(coeffs, point, q) == own_value
        )
        if best_collisions is None or collisions < best_collisions:
            best_point, best_collisions = point, collisions
            if collisions == 0:
                break
    return best_point * q + poly_eval(own_coeffs, best_point, q) + 1


_MASK64 = 2**64 - 1


def _splitmix64(word):
    """SplitMix64's step: add the golden gamma, then its 64-bit finalizer.

    The first mask leaves only ``word`` modulo ``2**64``, so a negative or
    wider-than-64-bit Python int hashes like its ``.astype(np.uint64)`` value.
    """
    word = (word + 0x9E3779B97F4A7C15) & _MASK64
    word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & _MASK64
    return word ^ (word >> 31)


def luby_draw(seed, unique_id, round_index, limit):
    """The index in ``range(limit)`` node ``unique_id`` draws in a round.

    A SplitMix64 chain over ``(seed, unique_id, round_index)``, each word
    taken modulo ``2**64``, reduced ``% limit``.  Luby's rounds count
    ``round_index`` up from 0; a draw outside Luby (the Theorem 6.1 split)
    passes a domain word there that no round reaches.  The one expression serves
    both engines: on Python ints the masks wrap it to 64 bits, and on
    ``uint64`` arrays (``unique_id`` and ``limit``; ``seed`` and
    ``round_index`` stay ints) numpy wraps it the same way, so an array
    lane equals the scalar draw with the same arguments.
    """
    word = _splitmix64(seed)
    word = _splitmix64(word ^ unique_id)
    word = _splitmix64(word ^ round_index)
    return word % limit
