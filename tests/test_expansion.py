"""Tests for the Luroth map, expansion/reconstruction, and the digit law."""

import math
import random
from fractions import Fraction

import pytest

from luroth.expansion import (
    digit,
    expand,
    luroth_step,
    max_cdf_exact,
    pmf,
    preimage_length,
    reconstruct,
    tail,
    weight,
)


def test_digit_examples():
    assert digit(Fraction(1, 2)) == 2
    assert digit(Fraction(3, 10)) == 3
    assert digit(1) == 1


def test_digit_interval_membership_random():
    rng = random.Random(0)
    for _ in range(500):
        x = Fraction(rng.randrange(1, 10**9), 10**9)
        n = digit(x)
        assert Fraction(1, n + 1) < x <= Fraction(1, n)


def test_digit_boundaries_belong_to_left_branch():
    for n in range(1, 200):
        assert digit(Fraction(1, n)) == n


def test_digit_domain():
    with pytest.raises(ValueError):
        digit(0)
    with pytest.raises(ValueError):
        digit(Fraction(3, 2))
    with pytest.raises(ValueError):
        digit(Fraction(-1, 2))


def test_step_examples():
    assert luroth_step(Fraction(1, 2)) == 1
    assert luroth_step(1) == 1
    assert luroth_step(Fraction(2, 3)) == Fraction(1, 3)


def test_step_stays_in_unit_interval():
    rng = random.Random(1)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10**6), 10**6)
        y = luroth_step(x)
        assert 0 < y <= 1


def test_expand_examples():
    assert expand(Fraction(1, 2), 4) == ((2, 1, 1, 1), 1)
    assert expand(Fraction(2, 3), 3) == ((1, 3, 1), 1)
    assert expand(1, 3)[0] == (1, 1, 1)


def test_expand_rejects_bad_count():
    with pytest.raises(ValueError):
        expand(Fraction(1, 2), 0)


def test_reconstruct_examples():
    assert reconstruct([2]) == Fraction(1, 3)
    assert reconstruct([2, 1]) == Fraction(1, 3) + Fraction(1, 2) / 6
    assert reconstruct([2, 1]) == Fraction(5, 12)


def test_reconstruct_rejects_empty_or_bad():
    with pytest.raises(ValueError):
        reconstruct([])
    with pytest.raises(ValueError):
        reconstruct([2, 0])


def test_expand_reconstruct_identity_five_sevenths():
    x = Fraction(5, 7)
    digits, remainder = expand(x, 6)
    assert reconstruct(digits) + remainder * weight(digits) == x


def test_expand_reconstruct_identity_random():
    rng = random.Random(2)
    for _ in range(60):
        x = Fraction(rng.randrange(1, 3000), 3000)
        n = rng.randrange(1, 65)
        digits, remainder = expand(x, n)
        assert reconstruct(digits) + remainder * weight(digits) == x


def test_float_input_expands_its_exact_dyadic_value():
    # 0.3 is not 3/10 in binary; the expansion must be of the dyadic rational
    digits, _ = expand(0.3, 2)
    exact = Fraction(0.3)
    assert digits[0] == exact.denominator // exact.numerator == 3


def test_pmf_tail_examples():
    assert pmf(1) == Fraction(1, 2)
    assert tail(1) == 1
    assert tail(7) == Fraction(1, 7)
    with pytest.raises(ValueError):
        pmf(0)
    with pytest.raises(ValueError):
        tail(0)


def test_pmf_telescopes():
    for n_top in (10, 100, 1000):
        total = sum(pmf(n) for n in range(1, n_top + 1))
        assert total == 1 - Fraction(1, n_top + 1)


def test_max_cdf_exact_values():
    got = max_cdf_exact(1000, 1000)
    assert got == Fraction(1000, 1001) ** 1000
    assert abs(float(got) - math.exp(-1)) < 1e-3
    assert max_cdf_exact(3, 1) == Fraction(1, 8)


def test_max_cdf_is_a_cdf_in_n():
    vals = [max_cdf_exact(5, n) for n in range(1, 30)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0 < v < 1 for v in vals)


def test_measure_preservation_probe():
    # preimage of (a, b] within branch n has length (b-a)/(n(n+1)); the sum
    # over n <= N comes back to (b-a) with tail exactly (b-a)/(N+1)
    a, b = Fraction(1, 5), Fraction(2, 3)
    for n_top in (5, 17, 50):
        total = sum(preimage_length(n, a, b) for n in range(1, n_top + 1))
        assert (b - a) - total == (b - a) * Fraction(1, n_top + 1)
