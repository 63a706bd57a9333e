"""Tests for the trimmed-sum centering ingredients."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from luroth.precision import lambert_w0
from luroth.trimming import (
    a_of,
    b_of,
    c_k,
    harmonic,
    j2_partial_sums,
    w_asymptotic_gap,
)


def lambert_bisect(x, iters=200):
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ----------------------------------------------------------------- a and b


def test_b_of_e_is_e():
    assert abs(b_of(math.e) - math.e) < 1e-14


def test_a_of_e_is_e():
    assert abs(a_of(math.e) - math.e) < 1e-15


def test_round_trip_identity():
    for x in (2.0, 10.0, 1e3, 1e6, 1e9, 1e12):
        assert abs(a_of(b_of(x)) - x) <= 1e-10 * x


def test_domain_checks():
    with pytest.raises(ValueError):
        a_of(1.0)
    with pytest.raises(ValueError):
        b_of(0.0)
    with pytest.raises(ValueError):
        w_asymptotic_gap(2.0)
    with pytest.raises(ValueError):
        b_of(math.inf)
    with pytest.raises(ValueError):
        w_asymptotic_gap(math.inf)


# ---------------------------------------------------------------- harmonic


def test_harmonic_small_exact():
    assert harmonic(1) == 1.0
    assert abs(harmonic(4) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-15


def test_harmonic_against_mpmath():
    # both sides of the n = 1000 switch, the c_k argument ceil(A(10^6)) =
    # 13815511, and far out in the expansion's range
    for n in (1, 2, 999, 1000, 1001, 10**4, 138156, 13815511, 10**8, 10**12):
        with mpmath.workprec(200):
            exact = mpmath.harmonic(n)
            assert abs(mpmath.mpf(harmonic(n)) - exact) <= 2 * math.ulp(float(exact)), n


# --------------------------------------------------------------- j2 series


def test_j2_first_term_against_bisection_oracle():
    w1 = lambert_bisect(1.0)
    w2 = lambert_bisect(2.0)
    oracle = 0.25 * (4.0 / w2**2 - 1.0 / w1**2)
    values, terms = j2_partial_sums(2)
    assert len(values) == len(terms) == 1
    assert abs(values[-1] - oracle) < 1e-9
    assert abs(values[-1] - 0.598) < 1e-3
    assert terms[-1] == values[-1]


def test_j2_monotone_prefix():
    values, terms = j2_partial_sums(10**4)
    assert np.all(np.diff(values) >= 0)
    assert np.all(terms > 0)
    assert values[0] < values[98] < values[998] < values[-1]


def test_j2_partial_matches_prefix():
    # the sum through N = 500 is the last entry of a longer table's prefix
    values, terms = j2_partial_sums(500)
    longer, longer_terms = j2_partial_sums(1000)
    assert values[-1] == longer[498]
    assert terms[-1] == longer_terms[498]


def test_j2_last_term_asymptotics():
    # term(n) ~ 2/(n log^2 n) since B(n) ~ n/log n
    _, terms = j2_partial_sums(10**5)
    scaled = terms[-1] * 10**5 * math.log(10**5) ** 2 / 2
    assert 0.5 <= scaled <= 2.0


def test_j2_terms_match_exact_lambert_oracle():
    # term(n) = (n^2/W(n)^2 - (n-1)^2/W(n-1)^2) / n^2 in exact rationals from
    # the 96-bit certified W payloads; relative, so the small far terms count
    _, terms = j2_partial_sums(10**6)
    for n in (2, 3, 17, 500, 2999, 10**5, 10**6):
        wn = lambert_w0(n, 96).value
        wm = lambert_w0(n - 1, 96).value
        oracle = (Fraction(n * n) / wn**2 - Fraction((n - 1) ** 2) / wm**2) / (n * n)
        assert abs(Fraction(float(terms[n - 2])) - oracle) <= Fraction(1e-13) * oracle, n


def test_j2_rejects_small_n():
    with pytest.raises(ValueError):
        j2_partial_sums(1)


# ------------------------------------------------------------------- c_k


def test_c_k_small_value_by_hand():
    # A(2) = 2 log 2, ceil = 2: conditional mean = (H_2 - 1)/(1 - 1/2) = 1
    expected = 2.0 / (2 * math.log(2.0))
    assert abs(c_k(2) - expected) < 1e-12


def test_c_k_band_at_desk_scale():
    assert 1.15 < c_k(10**6) < 1.25


def test_c_k_decreasing_toward_one():
    vals = [c_k(k) for k in (10**3, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1 for v in vals)


def test_c_k_exceeds_one_on_grid():
    for k in (3, 10, 100, 10**3, 10**5, 10**7):
        assert c_k(k) > 1.0


def test_c_k_asymptotic_gap():
    gaps = [abs(c_k(k) - 1 - math.log(math.log(k)) / math.log(k)) for k in (10**3, 10**5, 10**7)]
    assert gaps[-1] < 0.05
    assert gaps[0] > gaps[-1]


def test_c_k_rejects_small_k():
    with pytest.raises(ValueError):
        c_k(1)


# ------------------------------------------------------- asymptotic gap


def test_gap_values_and_trend():
    g3 = w_asymptotic_gap(1e3)
    g9 = w_asymptotic_gap(1e9)
    assert 0.1 < g3 < 0.5
    assert g9 < g3
    assert g9 > 0


def test_gap_positive_on_grid():
    for x in (10.0, 1e4, 1e6, 1e10, 1e12):
        assert w_asymptotic_gap(x) > 0


def test_gap_relative_vanishing():
    x = 1e12
    w = float(lambert_w0(x, 64).value)
    assert w_asymptotic_gap(x) / w < 0.02
