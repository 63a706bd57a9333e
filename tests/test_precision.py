"""Tests for the exact/certified numeric kernels.

Expected values come from independent oracles built in this file: a Pascal
recurrence table for binomial coefficients, direct summation for the partial
row sums, high-precision pi (via mpmath) for zeta at even arguments, the
three-term recurrence of T_n(3) for the zeta weights, the per-argument loop
over those weights for the zeta rows, and a bisection solver for Lambert W.
No expected value is copied from the implementation under test.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from luroth import precision
from luroth.extrema import rho_exact
from luroth.precision import (
    HighPrecisionReal,
    _exp_bracket,
    _lambert_w_float,
    _row_sums,
    bernoulli_triangle,
    lambert_w0,
    zeta_int,
)


# ---------------------------------------------------------------- oracles


def pascal_table(n_max):
    """Binomial coefficients from the additive Pascal recurrence only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


PASCAL = pascal_table(40)


def lambert_bisect(x, iters=200):
    """Bisection for w*e^w = x on [0, max(1, log x + 1)]; independent of the
    Newton implementation under test."""
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


# ------------------------------------------------------- bernoulli triangle


def test_triangle_row3_by_direct_summation():
    # independent oracle: sum the Pascal row prefix by hand
    expected = [sum(PASCAL[3][: j + 1]) for j in range(4)]
    assert expected == [1, 4, 7, 8]
    assert [bernoulli_triangle(3, j) for j in range(4)] == expected


@pytest.mark.parametrize("l", range(41))
def test_triangle_edges(l):
    assert bernoulli_triangle(l, 0) == 1
    assert bernoulli_triangle(l, l) == 2**l
    if l >= 1:
        assert bernoulli_triangle(l, l - 1) == 2**l - 1


def test_triangle_defining_difference():
    # T(l, j) - T(l, j-1) = C(l, j)
    for l in range(1, 31):
        for j in range(1, l + 1):
            assert bernoulli_triangle(l, j) - bernoulli_triangle(l, j - 1) == PASCAL[l][j]


def test_triangle_rejects_out_of_row():
    with pytest.raises(ValueError):
        bernoulli_triangle(5, -1)
    with pytest.raises(ValueError):
        bernoulli_triangle(5, 6)
    with pytest.raises(ValueError):
        bernoulli_triangle(-1, 0)


# -------------------------------------------------------------------- zeta


def test_zeta2_against_pi_squared():
    got = zeta_int(2, 128)
    with mpmath.workprec(320):
        oracle = mpmath.pi**2 / 6
        err = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - oracle)
        assert err <= mpmath.mpf(2) ** -120
    assert got.error_bound <= Fraction(1, 2**128)


def test_zeta4_against_pi_fourth():
    got = zeta_int(4, 160)
    with mpmath.workprec(400):
        oracle = mpmath.pi**4 / 90
        diff = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - oracle)
        assert diff <= mpmath.mpf(2) ** -155


# the last three are the ends of the exact rho sweep: rho_exact(k, target)
# asks for zeta(j), j <= k <= 200, at target + k + 64 bits
@pytest.mark.parametrize("j,bits", [(3, 64), (5, 128), (7, 192), (11, 96), (40, 128),
                                    (2, 384), (120, 320), (200, 384)])
def test_zeta_against_mpmath(j, bits):
    got = zeta_int(j, bits)
    with mpmath.workprec(bits + 80):
        oracle = mpmath.zeta(j)
        diff = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - oracle)
        bound = mpmath.mpf(got.error_bound.numerator) / got.error_bound.denominator
        assert diff <= bound
        assert bound <= mpmath.mpf(2) ** -bits


BUCKETS = range(64, 449, 64)  # the accuracy buckets up to 448 bits, the largest tested above


def test_zeta_weights_rest_on_chebyshev_t3():
    # d_n from Borwein's factorial formula must equal T_n(3) from the
    # three-term recurrence, and n must be the least with T_n(3) >= 2^(s+1),
    # which keeps the truncation below half an ulp at scale 2^-s
    t = [1, 3]
    for bucket in BUCKETS:
        s = bucket + precision._ZETA_GUARD
        weights = precision._borwein_weights(bucket)
        n = len(weights)
        while len(t) <= n:
            t.append(6 * t[-1] - t[-2])
        d = list(itertools.accumulate(
            n * math.factorial(n + i - 1) * 4**i
            // (math.factorial(n - i) * math.factorial(2 * i)) for i in range(n + 1)))
        assert d[n] == t[n]
        assert t[n] >= 2 << s > t[n - 1]
        assert weights == tuple(((d[n] - dk) << s) // d[n] for dk in d[:n])


# every bucket at j = 64 and 65 (which open the exact rho sweep's 256- and
# 320-bit buckets) and at the ends of the alternating sum: j = 2 runs through
# all n weights, j = 300 stops after at most 3
@pytest.mark.parametrize("j,bits", [(j, bucket) for bucket in BUCKETS
                                    for j in (2, 3, 63, 64, 65, 300)])
def test_zeta_per_argument_params_against_mpmath(j, bits):
    got = zeta_int(j, bits)
    with mpmath.workprec(bits + 80):
        oracle = mpmath.zeta(j)
        diff = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - oracle)
        bound = mpmath.mpf(got.error_bound.numerator) / got.error_bound.denominator
        assert diff <= bound
        assert bound <= mpmath.mpf(2) ** -bits


def test_zeta_large_argument_near_one():
    # zeta(60) - 1 is within ten percent of 2^-60 (the n=2 term dominates)
    got = zeta_int(60, 128)
    excess = Fraction(got.value) - 1
    assert Fraction(9, 10) * Fraction(1, 2**60) < excess < Fraction(11, 10) * Fraction(1, 2**60)


def test_zeta_precision_consistency():
    # same true value underneath: any two precisions agree within summed bounds
    vals = [zeta_int(3, p) for p in (32, 64, 128, 192)]
    for a in vals:
        for b in vals:
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_zeta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_int(1, 64)
    with pytest.raises(ValueError):
        zeta_int(2, 8)
    with pytest.raises(TypeError):
        zeta_int(2.0, 64)


# ------------------------------------------- zeta rows against the per-j loop


def zeta_per_argument(j, bucket):
    """zeta(j) as (num, ulps, s) from the per-argument loop the row sweep
    replaced: it forms (k+1)**j for every term and stops at the first weight
    below it."""
    eta = terms = 0
    for k, c in enumerate(precision._borwein_weights(bucket)):
        m = (k + 1) ** j
        if m > c:
            break
        eta += -(c // m) if k & 1 else c // m
        terms += 1
    half = 1 << (j - 1)
    return (eta * half) // (half - 1), terms + 5, bucket + precision._ZETA_GUARD


def rho_from_per_argument_zeta(k, target):
    """rho_exact's (value, bound) summed term by term from zeta_per_argument."""
    zbits = target + k + 64
    acc = errsum = 0
    for j, t in zip(range(k, 1, -1), _row_sums(k - 1)):
        zval, zulps, s = zeta_per_argument(j, ((zbits + 63) // 64) * 64)
        acc += zval * t if j % 2 == 1 else -zval * t
        errsum += t * zulps
    acc += 1 << (k - 1 + s)
    sh = s - target - 16
    q, r = divmod(k * acc, 1 << sh)
    if 2 * r > 1 << sh or (2 * r == 1 << sh and q & 1):
        q += 1
    return Fraction(q, 1 << (target + 16)), Fraction(k * errsum + (1 << (sh - 1)), 1 << s)


@pytest.mark.parametrize("bits", list(BUCKETS) + [100, 1000])
def test_zeta_rows_match_per_argument_loop(bits):
    # a row asked to jmax at bits runs to jmax plus the bucket's slack over
    # bits: 28 at 100 bits, 24 at 1000.  At the buckets themselves, rows of
    # every length up to the first past s, where only c_0 is left.  Each
    # shorter row must be a prefix of the longest, bit for bit
    bucket = -(-bits // 64) * 64
    s = bucket + precision._ZETA_GUARD
    lengths = range(64, s + 64, 64) if bits == bucket else (2, 3, 64, 65)
    rows = [precision._zeta_row(bits, jmax) for jmax in lengths]
    nums, ulps, s_row = rows[-1]
    assert s_row == s
    assert bits < bucket or len(nums) >= s - 1
    for j in range(2, len(nums) + 2):
        assert (nums[j - 2], ulps[j - 2], s) == zeta_per_argument(j, bucket), j
    for jmax, row in zip(lengths, rows):
        size = jmax - 1 + bucket - bits
        assert len(row[0]) == len(row[1]) == size
        assert row == (nums[:size], ulps[:size], s)


def test_lone_zeta_sweeps_only_to_its_argument():
    # zeta(3) at 4096 bits sweeps the row of j = 2..3 once, not j = 2..64
    cache = precision._zeta_sweep
    cache.cache_clear()
    zeta_int(3, 4096)
    assert cache.cache_info().currsize == 1
    assert len(cache(4096, 3)[0]) == 2
    assert cache.cache_info().hits == 1


@pytest.mark.parametrize("bucket", BUCKETS)
def test_zeta_int_past_the_row_matches_per_argument_loop(bucket):
    # j = 300 lies past s in the buckets below 320 and inside a row above;
    # j = 10^5 is past s everywhere and must not build a row of that length
    before = precision._zeta_sweep.cache_info().currsize
    got = zeta_int(10**5, bucket)
    assert precision._zeta_sweep.cache_info().currsize == before
    for j, z in ((10**5, got), (300, zeta_int(300, bucket))):
        num, ulps, s = zeta_per_argument(j, bucket)
        assert z == (Fraction(num, 1 << s), Fraction(ulps, 1 << s)), j


# the edges of the 64-bit buckets that rho_exact(k, target) reads at
# target + k + 64 bits: 256 | 320 and 320 | 384 at 128 bits, 128 | 192 at 8
@pytest.mark.parametrize("k,target", [(64, 128), (65, 128), (128, 128), (129, 128),
                                      (56, 8), (57, 8), (300, 256)])
def test_rho_exact_matches_per_argument_zeta(k, target):
    assert rho_exact(k, target) == rho_from_per_argument_zeta(k, target)


# ------------------------------------------------------------- exp bracket


def _assert_bracket(w, s, prec):
    lo, hi = _exp_bracket(w, s)
    with mpmath.workprec(prec):
        true = mpmath.exp(mpmath.mpf(w) / mpmath.mpf(2) ** s) * mpmath.mpf(2) ** s
        assert lo <= true <= hi, (w, s)


@pytest.mark.parametrize("scale", [20, 40, 64, 96, 128, 160])
def test_exp_bracket_contains_exp(scale):
    # lo <= 2^s e^(w/2^s) <= hi against mpmath on a dense grid: every small
    # w, then w spread over [0, 40) both at random and just around each
    # halving threshold w = 2^(s+t-1), where the Taylor argument is 1/2
    rng = random.Random(scale)
    ws = list(range(64))
    ws += [rng.randrange(40 << scale) for _ in range(300)]
    ws += [(1 << (scale + t - 1)) + d for t in range(7) for d in (-1, 0, 1)]
    for w in ws:
        _assert_bracket(w, scale, scale + 200)


def test_exp_bracket_at_zero_and_large_arguments():
    assert _exp_bracket(0, 64) == (1 << 64, 1 << 64)
    s = 1100
    for w in [1 << s, 7 << (s - 1), 100 << s, (690 << s) - 12345, 690 << s]:
        _assert_bracket(w, s, 2 * s + 1100)


# ------------------------------------------------------------- lambert w


def test_lambert_at_one_against_bisection():
    oracle = lambert_bisect(1.0)
    assert abs(oracle - 0.5671432904097838) < 1e-12  # sanity on the oracle itself
    w = lambert_w0(1, 64)
    assert abs(float(w.value) - oracle) < 1e-12


def test_lambert_at_zero_and_e():
    assert lambert_w0(0, 64).value == 0
    w = lambert_w0(math.e, 64)
    # argument is float e, not e itself; still within a comfortable window of 1
    assert abs(float(w.value) - 1.0) < 1e-12


def test_lambert_residual_certificate():
    # |w e^w - x| <= 2^-p * max(1, x) checked against a 250-bit oracle
    xs = [2.0 ** (-20 + i * (60 / 49.0)) for i in range(50)]
    for x in xs:
        got = lambert_w0(x, 64)
        with mpmath.workprec(250):
            wv = mpmath.mpf(got.value.numerator) / got.value.denominator
            resid = abs(wv * mpmath.exp(wv) - mpmath.mpf(x))
            assert resid <= mpmath.mpf(2) ** -64 * max(1.0, x)


def test_lambert_error_bound_holds():
    for x in [Fraction(1, 937), Fraction(3, 7), Fraction(2), Fraction(10**6), Fraction(10**12)]:
        got = lambert_w0(x, 80)
        with mpmath.workprec(300):
            true = mpmath.lambertw(mpmath.mpf(x.numerator) / x.denominator)
            diff = abs(mpmath.mpf(got.value.numerator) / got.value.denominator - true)
            bound = mpmath.mpf(got.error_bound.numerator) / got.error_bound.denominator
        assert diff <= bound


@pytest.mark.parametrize("bits", [64, 256, 976, 2000])
def test_lambert_bound_and_residual_at_high_precision(bits):
    # 976 and 2000 bits scale the seed past the float range; 1.7e308 is where
    # a Halley step on w e^w - x overflowed, and the last three have no float
    # seed: theirs comes from log x
    for x in [Fraction(2), Fraction(1, 937), Fraction(10**6), Fraction(1.7e308),
              Fraction(10**400), Fraction(10**400, 3), Fraction(10**5000)]:
        got = lambert_w0(x, bits)
        with mpmath.workprec(2 * bits + 1100):
            xv = mpmath.mpf(x.numerator) / x.denominator
            wv = mpmath.mpf(got.value.numerator) / got.value.denominator
            bound = mpmath.mpf(got.error_bound.numerator) / got.error_bound.denominator
            assert abs(wv - mpmath.lambertw(xv)) <= bound
            resid = abs(wv * mpmath.exp(wv) - xv)
            assert resid <= mpmath.mpf(2) ** -bits * max(1, xv)


def test_lambert_monotone_on_grid():
    xs = [0.001 * 1.9**i for i in range(40)]
    ws = [float(lambert_w0(x, 64).value) for x in xs]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_lambert_rejects_negative():
    with pytest.raises(ValueError):
        lambert_w0(-0.5, 64)


def test_lambert_float_within_two_ulps_of_certified():
    # the shared float64 W, scalar and as the consecutive-integer array the
    # J2 series passes in, against the certified kernel at 96 bits
    def check(xs, got):
        for x, w in zip(xs, got):
            ref = float(lambert_w0(float(x), 96).value)
            assert abs(w - ref) <= 2 * math.ulp(ref), x

    xs = [float(x) for x in np.logspace(-3, 9, 50)] + [1.0, math.e, 1e300, 1.7e308,
                                                        sys.float_info.max]
    check(xs, [float(_lambert_w_float(x)) for x in xs])
    n = np.arange(99_990, 100_011, dtype=np.float64)
    check(n, _lambert_w_float(n))


def test_lambert_random_rationals_vs_bisection():
    rng = random.Random(7)
    for _ in range(25):
        x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        got = float(lambert_w0(x, 64).value)
        assert abs(got - lambert_bisect(float(x))) < 1e-10


# --------------------------------------------------- HighPrecisionReal ops


def test_hpr_rejects_negative_bound():
    with pytest.raises(ValueError):
        HighPrecisionReal(Fraction(1), Fraction(-1))
