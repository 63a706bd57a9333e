"""Tests for the uniqueness-of-maximum probabilities.

The two independent routes to the same quantity (exact zeta formula vs
direct series) act as each other's oracle; the partial-fraction identity is
checked as exact rational equality, and rho_2 gets a from-scratch series
oracle 1 - sum(p_m^2) built here.
"""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from luroth import extrema, precision
from luroth.expansion import pmf, tail
from luroth.extrema import (
    coeff_c,
    q_k,
    q_k_via_partial_fraction,
    rho_exact,
    rho_series,
    rho_sum_over_k,
)
from luroth.precision import PrecisionError, _row_sums, bernoulli_triangle


# ------------------------------------------------------------ coefficients


@pytest.mark.parametrize("k", range(1, 41))
def test_coeff_edge_values(k):
    assert coeff_c(1, k) == 2 ** (k - 1)
    if k >= 2:
        assert coeff_c(2, k) == 1 - 2 ** (k - 1)
    assert coeff_c(k, k) == (-1) ** (k + 1)
    assert coeff_c(k + 1, k) == 0


def test_coeff_recurrence():
    for k in range(2, 41):
        for j in range(2, k + 1):
            assert coeff_c(j, k) == coeff_c(j, k - 1) - coeff_c(j - 1, k - 1)


def test_coeff_rejects_out_of_range():
    with pytest.raises(ValueError):
        coeff_c(0, 5)
    with pytest.raises(ValueError):
        coeff_c(7, 5)


# -------------------------------------------------------------- level terms


def test_q_examples():
    for m in (1, 2, 7, 30):
        assert q_k(m, 1) == Fraction(1, m * (m + 1))
    assert q_k(3, 2) == Fraction(1, 18)
    assert q_k(1, 5) == 0


def test_q_ratio_identity():
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randrange(2, 60)
        k = rng.randrange(1, 30)
        assert q_k(m, k + 1) == (1 - Fraction(1, m)) * q_k(m, k)


def test_partial_fraction_examples():
    assert q_k_via_partial_fraction(5, 1) == Fraction(1, 30)
    expected = 2 * (Fraction(1, 3) - Fraction(1, 4)) - Fraction(1, 9)
    assert q_k_via_partial_fraction(3, 2) == expected == Fraction(1, 18)


def test_partial_fraction_identity_sweep():
    # the exact-rational identity behind the zeta formula, zero tolerance
    for m in range(1, 41):
        for k in range(1, 26):
            assert q_k_via_partial_fraction(m, k) == q_k(m, k)


def test_pmf_tail_ratio_premise():
    # the heavy-tail criterion input: pmf(m)*(m+1) = tail(m) exactly
    for m in range(1, 2000):
        assert pmf(m) * (m + 1) == tail(m)
    for m in (10**4, 10**5, 10**6):
        assert pmf(m) * (m + 1) == tail(m)


# ------------------------------------------------------------ sum over k


def test_rho_sum_m1():
    for k_top in (1, 10, 400):
        assert rho_sum_over_k(1, k_top) == Fraction(1, 2)


@pytest.mark.parametrize("m,k_top", [(2, 100), (5, 400)])
def test_rho_sum_near_limit(m, k_top):
    got = rho_sum_over_k(m, k_top)
    assert abs(got - Fraction(m, m + 1)) <= Fraction(1, 10**12)


def test_rho_sum_partial_matches_direct():
    for m in (2, 3, 11):
        direct = sum(k * q_k(m, k) for k in range(1, 31))
        assert rho_sum_over_k(m, 30) == direct


# ------------------------------------------------------------- rho exact


def test_rho_exact_k1():
    got = rho_exact(1, 128)
    assert got.value == 1
    assert got.error_bound == 0


def test_rho_exact_k2_closed_form():
    # 4 - 2*zeta(2) with zeta(2) = pi^2/6 from the high-precision oracle
    got = rho_exact(2, 128)
    with mpmath.workprec(400):
        oracle = 4 - mpmath.pi**2 / 3
        diff = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - oracle)
        assert diff <= mpmath.mpf(2) ** -100


def test_rho_exact_k2_independent_series():
    # rho_2 = 1 - P(two digits tie) = 1 - sum pmf(m)^2, tail below 1/(3M^3)
    m_top = 4000
    partial = sum(Fraction(1, (m * (m + 1)) ** 2) for m in range(1, m_top + 1))
    tail_bound = Fraction(1, 3 * m_top**3)
    got = rho_exact(2, 128).value
    assert abs(got - (1 - partial)) <= tail_bound + Fraction(1, 2**100)


def test_rho_exact_certifies_bound():
    got = rho_exact(10, 96)
    assert got.error_bound <= Fraction(1, 2**96)


def _rho_closed_form_mpmath(k, bits):
    # k (2^(k-1) + sum_{j=2..k} (-1)^(j+1) T(k-1, k-j) zeta(j)) at `bits`
    # working bits, T summed here from math.comb and zeta from mpmath
    with mpmath.workprec(bits):
        acc = mpmath.mpf(2) ** (k - 1)
        for j in range(2, k + 1):
            t = sum(math.comb(k - 1, i) for i in range(k - j + 1))
            acc += (-1) ** (j + 1) * t * mpmath.zeta(j)
        return k * acc


@pytest.mark.parametrize("target", [64, 128, 256])
@pytest.mark.parametrize("k", [2, 3, 17, 63, 64, 65, 120, 129, 200, 201, 300])
def test_rho_exact_against_mpmath_closed_form(k, target):
    # k covers both sides of the 64-bit zeta accuracy buckets: the working
    # precision target + k + 64 crosses a multiple of 64 between these k
    got = rho_exact(k, target)
    bits = target + k + 100
    oracle = _rho_closed_form_mpmath(k, bits)
    with mpmath.workprec(bits):
        value = mpmath.mpf(got.value.numerator) / got.value.denominator
        bound = mpmath.mpf(got.error_bound.numerator) / got.error_bound.denominator
        assert abs(value - oracle) <= bound
    assert got.error_bound <= Fraction(1, 2**target)


def test_row_sums_match_bernoulli_triangle():
    # the running partial row sum rho_exact takes its coefficients from,
    # against bernoulli_triangle and against accumulated math.comb
    for k in range(2, 61):
        row = list(_row_sums(k - 1))
        assert row == [bernoulli_triangle(k - 1, i) for i in range(k)]
        assert row == list(itertools.accumulate(math.comb(k - 1, i) for i in range(k)))


def test_rho_exact_uncertifiable_raises(monkeypatch):
    # a bound of 1 on every zeta value, whatever the kernel certifies, leaves
    # the result far above 2^-target
    real = extrema._zeta_row

    def inflated(bits, jmax):
        nums, ulps, s = real(bits, jmax)
        return nums, (1 << s,) * len(ulps), s

    monkeypatch.setattr(extrema, "_zeta_row", inflated)
    with pytest.raises(PrecisionError):
        rho_exact(10, 96)


def test_rho_exact_outside_unit_interval_raises(monkeypatch):
    # every zeta value read as 0 gives rho_3 = 3 * 2^2 within a small bound:
    # a value outside (0, 1] by more than its bound is a failed certificate
    real = extrema._zeta_row

    def zeros(bits, jmax):
        nums, ulps, s = real(bits, jmax)
        return (0,) * len(nums), (1,) * len(ulps), s

    monkeypatch.setattr(extrema, "_zeta_row", zeros)
    with pytest.raises(PrecisionError):
        rho_exact(3)


def patch_zeta2(monkeypatch, num):
    # zeta(2) read as num(z, s) / 2**s in place of z / 2**s, every ulp count
    # and other zeta value kept; returns the new numerator and the scale s at
    # the row that rho_exact(2, 128) reads, of 128 + 2 + 64 bits.  rho_2 is
    # 4 - 2 zeta(2), so k acc = 2**(s+2) - 2 num(z, s) exactly, in ulps of 2**-s
    real = extrema._zeta_row

    def row(bits, jmax):
        nums, ulps, s = real(bits, jmax)
        return (num(nums[0], s),) + nums[1:], ulps, s

    monkeypatch.setattr(extrema, "_zeta_row", row)
    nums, _, s = row(194, 2)
    return nums[0], s


@pytest.mark.parametrize("quarter, floor_parity", [(1, 1), (3, 0)])
def test_rho_exact_rounds_half_to_even(monkeypatch, quarter, floor_parity):
    # the output grid 2**-(128+16) is 2**sh ulps, sh = s - 144; zeta(2)'s
    # numerator at an odd multiple of 2**(sh-2) puts k acc half way between
    # two grid points: quarter 1 above an odd one, which rounds up, and
    # quarter 3 above an even one, which stays
    z, s = patch_zeta2(monkeypatch, lambda z, s: (z >> s - 144 << s - 144) + (quarter << s - 146))
    k_acc, sh = (1 << s + 2) - 2 * z, s - 144
    q, r = divmod(k_acc, 1 << sh)
    assert r == 1 << sh - 1 and q & 1 == floor_parity
    want = round(Fraction(k_acc, 1 << sh))  # a Fraction rounds half to even
    assert want == q + floor_parity
    got = rho_exact(2, 128)
    assert got.value == Fraction(want, 1 << 144)
    assert abs(got.value - Fraction(k_acc, 1 << s)) == Fraction(1, 1 << 145)


@pytest.mark.parametrize("zeta2", [Fraction(2), Fraction(2) + Fraction(1, 1 << 100)])
def test_rho_exact_at_or_below_zero_raises(monkeypatch, zeta2):
    # zeta(2) read as 2 gives rho_2 = 0, and a little more a negative rho_2,
    # each within a small bound: outside (0, 1], a failed certificate
    patch_zeta2(monkeypatch, lambda z, s: int(zeta2 * (1 << s)))
    with pytest.raises(PrecisionError):
        rho_exact(2, 128)


def test_probability_range_ends():
    # 0 < value <= 1 + bound, checked on numerators and denominators: both
    # ends are exact, for rho_exact's dyadic values and any rational bound
    bound = Fraction(1, 3 << 150)
    for value in (Fraction(1, 1 << 144), Fraction(1), 1 + bound):
        assert extrema._probability(value, bound) == (value, bound)
    for value in (Fraction(0), -bound, 1 + bound + Fraction(1, 1 << 300)):
        with pytest.raises(PrecisionError):
            extrema._probability(value, bound)


def test_rho_exact_evaluates_zeta_once_per_bucket():
    # rho_exact(k, 128) asks for 192 + k bits: k <= 64 reads the 256-bit
    # bucket's row of j = 2..64 and k >= 65 the 320-bit one's of j = 2..128,
    # each one sweep; a second pass sweeps nothing
    cache = precision._zeta_sweep
    cache.cache_clear()
    for k in range(2, 121):
        rho_exact(k, 128)
    assert cache.cache_info().misses == 2
    for k in range(2, 121):
        rho_exact(k, 128)
    assert cache.cache_info().misses == 2


def test_rho_exact_rejects_bad_k():
    with pytest.raises(ValueError):
        rho_exact(0)


def test_rho_exact_increasing_precision_consistent():
    a = rho_exact(7, 64)
    b = rho_exact(7, 192)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


@pytest.mark.parametrize("k", [40, 80, 120, 200, 300])
def test_rho_exact_rate_to_one(k):
    # the paper's limit rho_k -> 1, with its rate.  rho_k = L_k + r_k, with
    # L_k = (k/2) Phi(1/2, 1, k), a Lerch value, and 1 - L_k =
    # sum_{i>=1} i/(2^(i+1) (k + i)).  Four terms of 1/(1 + i/k) = 1 - i/k + ... give
    # the ordered Bell (Fubini) numbers 1, 3, 13, 75 = sum_i i^n/2^(i+1) and
    # leave k^-5 sum_i i^5/(2^(i+1) (1 + i/k)), which 1 - i/k <= 1/(1 + i/k)
    # <= 1 puts between 541/k^5 - 4683/k^6 and 541/k^5 (the next two)
    value, bound = rho_exact(k, 256)
    e = 1 - value - (Fraction(1, k) - Fraction(3, k**2) + Fraction(13, k**3) - Fraction(75, k**4))
    # bound is certified; the second term is the measured envelope of the
    # Poisson remainder r_k, 2.5-19 e^(-2 sqrt(pi k)) from k = 40 to 300, not a proof
    eps = bound + Fraction(100 * math.exp(-2 * math.sqrt(math.pi * k)))
    assert Fraction(541, k**5) - Fraction(4683, k**6) - eps <= e <= Fraction(541, k**5) + eps


# ------------------------------------------------------------- rho series


def test_rho_series_k1():
    got = rho_series(1, 1e-6)
    assert abs(float(got.value) - 1.0) <= 1e-6


def test_rho_series_k2():
    got = rho_series(2, 1e-6)
    exact = rho_exact(2, 128)
    assert abs(float(got.value) - float(exact.value)) <= 1e-6


def test_rho_series_rejects_bad_tol():
    # below 2^-52 float resolution, not truncation, would set the bound
    for tol in (0.0, math.nan, -1.0, 2.0**-53):
        with pytest.raises(ValueError):
            rho_series(1, tol)


def test_rho_series_within_bound_on_grid():
    # the tail bracket must hold the exact value, and its half-width plus the
    # rounding allowance must stay within tol, at every k and tol of the grid
    for tol in (1e-4, 4e-5, 1e-6, 1e-9, 1e-12):
        for k in range(1, 201):
            got = rho_series(k, tol)
            exact = rho_exact(k, 128)
            err = abs(got.value - exact.value) + exact.error_bound
            assert err <= got.error_bound, (k, tol)
            assert got.error_bound <= tol + got.value * Fraction(1, 2**44), (k, tol)


def test_rho_series_accepts_smallest_tol():
    got = rho_series(40, 2.0**-52)
    exact = rho_exact(40, 128).value
    assert abs(got.value - exact) <= got.error_bound <= 2.0**-44


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 20])
def test_cross_oracle_agreement_small_k(k):
    # the k=40 leg runs in the acceptance suite where its runtime belongs
    exact = rho_exact(k, 128)
    series = rho_series(k, 1e-6)
    assert abs(float(exact.value) - float(series.value)) <= 1e-6 + 2**-64


def test_rho_series_k40_band():
    got = rho_series(40, 1e-4)
    assert 0.9 < float(got.value) < 1.0
