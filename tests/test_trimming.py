"""Tests for the trimmed-sum centering ingredients."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from luroth import trimming
from luroth.precision import _lambert_w_float, lambert_w0
from luroth.trimming import (
    c_k,
    harmonic,
    j2_partial_sums,
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


def j2_one_pass(n_max):
    # the series in one pass over all n: one Lambert W, 4 Newton steps, one cumsum
    n = np.arange(2, n_max + 1, dtype=np.float64)
    w = _lambert_w_float(n - 1.0)
    r = np.log1p(1.0 / (n - 1.0))
    d = r * w / (1.0 + w)
    for _ in range(4):
        d -= (d + np.log1p(d / w) - r) / (1.0 + 1.0 / (w + d))
    terms = np.exp(2.0 * w) * np.expm1(2.0 * d) / (n * n)
    return np.cumsum(terms), terms


@pytest.mark.parametrize("offset", [-1, 0, 1, 2, trimming._J2_BLOCK + 1])
def test_j2_blocks_match_one_pass(offset):
    # terms go in blocks of _J2_BLOCK values of n; at and around the block
    # ends every term and partial sum must keep every bit of one pass
    n_max = trimming._J2_BLOCK + offset
    values, terms = j2_partial_sums(n_max)
    want_values, want_terms = j2_one_pass(n_max)
    assert terms.tobytes() == want_terms.tobytes()
    assert values.tobytes() == want_values.tobytes()


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


def test_j2_differences_against_tail_bracket():
    # The tail T(N) = sum_{n>N} term_n lies in
    #   2/W(N) - 4/(N W(N)(1 + W(N))) <= T(N) <= 2/W(N).
    # With h = (B^2)' = 2x/(W(1 + W)) > 0, term_n = int_{n-1}^n h(x) dx / n^2,
    # and 1/(x + 1)^2 <= 1/n^2 <= 1/x^2 on [n - 1, n].  Upper: T(N) <=
    # int_N^inf h/x^2 dx, which x = w e^w turns into int_{W(N)}^inf 2/w^2 dw
    # = 2/W(N).  Lower: T(N) >= int_N^inf h/(x + 1)^2 dx, below the upper by
    # int_N^inf h (2x + 1)/(x^2 (x + 1)^2) dx <= int_N^inf 4/(W(1 + W) x^2) dx
    # <= 4/(N W(N)(1 + W(N))), as (2x + 1)/(x + 1)^2 <= 2/x and W increases.
    # So J2(N2) - J2(N1) = T(N1) - T(N2) lies within 2/W(N1) - 2/W(N2), less
    # the lower slack at N1, plus that at N2.  Float error: each term is
    # within 1e-13 relative (test_j2_terms_match_exact_lambert_oracle), and
    # a sequential sum of N positive terms is within (N - 1) 2^-53 of its
    # total (Higham, Accuracy and Stability of Numerical Algorithms, 4.2);
    # twice that for the two sums of a difference.
    n2 = 10**6
    values, _ = j2_partial_sums(n2)
    fl = (1e-13 + 2 * n2 * 2.0**-53) * float(values[-1])
    with mpmath.workdps(30):
        w = {n: mpmath.lambertw(n).real for n in (10**3, 10**4, 10**5, n2)}
        slack = {n: 4 / (n * w[n] * (1 + w[n])) for n in w}
        for n1 in (10**3, 10**4, 10**5):
            got = mpmath.mpf(float(values[n2 - 2])) - mpmath.mpf(float(values[n1 - 2]))
            mid = 2 / w[n1] - 2 / w[n2]
            assert mid - slack[n1] - fl <= got <= mid + slack[n2] + fl, n1


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
