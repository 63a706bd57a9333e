"""Tests for the exact/certified numeric kernels.

Expected values come from independent oracles built in this file: a Pascal
recurrence table for binomial coefficients, direct summation for the partial
row sums, high-precision pi (via mpmath) for zeta at even arguments, and a
bisection solver for Lambert W.  No expected value is copied from the
implementation under test.
"""

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from luroth import precision
from luroth.precision import (
    HighPrecisionReal,
    PrecisionError,
    _exp_bracket,
    _lambert_w_float,
    bernoulli_number,
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


# -------------------------------------------------------- bernoulli numbers


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_sum_identity():
    # sum_{j<m} C(m+1, j) B_j = 0 for m >= 1 is the defining recurrence;
    # check it holds including the computed top term, past B_136, the
    # largest index zeta_int uses at 384 bits
    for m in range(2, 160):
        total = sum(math.comb(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
        assert total == 0


def test_bernoulli_table_is_shared_until_it_grows():
    table = precision._bernoulli_upto(10)
    assert precision._bernoulli_upto(10) is table
    assert precision._bernoulli_upto(len(table) - 1) is table


def test_bernoulli_table_grows_safely_across_threads(monkeypatch):
    # each caller grows from whatever table it read, so a concurrent rebind to
    # a shorter table must not leave any caller short of its own index
    fresh = (Fraction(1), Fraction(-1, 2))
    monkeypatch.setattr(precision, "_BERNOULLI", fresh)
    serial = precision._bernoulli_upto(250)  # longer than any table grown below
    monkeypatch.setattr(precision, "_BERNOULLI", fresh)
    ms = [3, 120, 7, 64, 40, 2, 96, 18, 120, 33]
    got = [None] * len(ms)
    barrier = threading.Barrier(len(ms))

    def grow(i):
        barrier.wait(timeout=30)
        got[i] = precision._bernoulli_upto(ms[i])

    threads = [threading.Thread(target=grow, args=(i,)) for i in range(len(ms))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for m, table in zip(ms, got):
        assert len(table) > m
        assert table == serial[:len(table)]


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


def test_zeta_params_pass_the_remainder_check():
    # the float estimate only picks (n, q): the integer check on the first
    # omitted term must hold at every argument and bucket rho_exact can ask for
    for bucket in range(64, 449, 64):
        bits = bucket + 8
        for j in range(2, 301):
            n, q = precision._zeta_em_params(j, bits)
            a, b, p = precision._zeta_em_remainder(j, q)
            assert n >= 2 and q >= 1
            assert a << bits <= b * n**p


def test_zeta_params_cut_the_sweep_terms():
    # rho_exact(k, 128) for k = 2..120 asks zeta(j), j <= k, at the bucket of
    # 192 + k bits: 182 keys, which take 15118 terms n + q at the fixed order
    # q = bits//6 + 2
    keys = {(j, -(-(192 + k) // 64) * 64) for k in range(2, 121) for j in range(2, k + 1)}
    assert len(keys) == 182
    total = sum(sum(precision._zeta_em_params(j, bucket + 8)) for j, bucket in keys)
    assert 3 * total <= 2 * 15118


# the first two open the sweep's 256- and 320-bit buckets; at (2, 448) the
# pair takes the most power and Bernoulli terms, at (300, 448) q = 1
@pytest.mark.parametrize("j,bits", [(64, 256), (65, 320), (2, 448), (300, 448)])
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


def test_zeta_uncertifiable_raises(monkeypatch):
    # a cutoff far too small for the bucket leaves a remainder above 2^-bucket
    monkeypatch.setattr(precision, "_ZETA_CACHE", {})
    monkeypatch.setattr(precision, "_zeta_em_params", lambda j, bits: (2, 1))
    with pytest.raises(PrecisionError):
        zeta_int(3, 128)


def test_zeta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_int(1, 64)
    with pytest.raises(ValueError):
        zeta_int(2, 8)
    with pytest.raises(TypeError):
        zeta_int(2.0, 64)


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
