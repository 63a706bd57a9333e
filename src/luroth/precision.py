"""Exact and error-bounded numeric kernels.

Exact integer arithmetic (the Bernoulli triangles, partial sums of binomial
rows) plus two certified real-valued kernels.

Riemann zeta at integer arguments comes from Borwein's Chebyshev-weighted
alternating sum for eta(j) in fixed-point integers, then
zeta(j) = eta(j) 2**(j-1) / (2**(j-1) - 1), a row of j = 2..jmax per sweep
over the integer weights of a 64-bit accuracy bucket, which ``rho_exact``
reads.  The weights' count n makes T_n(3) >= 2**(s+1), so the truncation
stays under half an ulp.  Each entry is an integer numerator over 2**s with
a certified count of ulps: one per summed term, plus five for the
truncation, the tail and the final division.

The principal branch of Lambert W comes from a float seed refined by Newton
steps in fixed-point integers, certified by a bracket from an integer exp
rounded down and up.  The seed, ``_lambert_w_float``, is the package's one
float64 Lambert W: a vectorised Halley iteration, also used uncertified where
a W value only feeds a float result (the J2 series in ``trimming``).

``HighPrecisionReal`` is the package's one certified-real record: an exact
rational payload (usually dyadic) together with a conservative absolute
error bound.  It is a record, not a number type: callers read ``value`` and
``error_bound`` and combine them in their own integer or rational
arithmetic, stating their own bounds.
Exact quantities are returned as plain ``Fraction`` values instead.
"""

import functools
import itertools
import math
from fractions import Fraction
from operator import floordiv
from typing import NamedTuple, Tuple, Union

import numpy as np

Real = Union[int, float, Fraction]

__all__ = [
    "HighPrecisionReal",
    "PrecisionError",
    "bernoulli_triangle",
    "lambert_w0",
]


class PrecisionError(ArithmeticError):
    """Raised when a requested error bound cannot be certified."""


def _to_fraction(x: Real) -> Fraction:
    """Convert exactly; floats are taken at their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite value: %r" % x)
        return Fraction(x)
    raise TypeError("expected int, float or Fraction, got %s" % type(x).__name__)


class HighPrecisionReal(NamedTuple("HighPrecisionReal",
                                    [("value", Fraction), ("error_bound", Fraction)])):
    """A real number as an exact stored value plus an absolute error bound.

    ``value`` is the exact rational payload, ``error_bound`` a certified bound
    on ``|value - true|`` (zero means the value is exact).  As a named tuple
    it unpacks as ``value, bound = r``; ``+`` and ``*`` act on it as on a
    tuple, never as on a number.
    """

    __slots__ = ()

    def __new__(cls, value: Fraction, error_bound: Fraction):
        if error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        return super().__new__(cls, value, error_bound)


def bernoulli_triangle(l: int, j: int) -> int:
    """Partial row sum of binomial coefficients: sum of C(l, i) for i <= j.

    Exact integer result; rejects j outside [0, l].
    """
    if l < 0:
        raise ValueError("row index must be nonnegative")
    if j < 0 or j > l:
        raise ValueError("column index %d outside row of length %d" % (j, l))
    return next(itertools.islice(_row_sums(l), j, None))


def _row_sums(l: int):
    """Partial sums T(l, i) = C(l, 0) + ... + C(l, i) for i = 0, 1, ..., l."""
    acc, c = 0, 1
    for i in range(l + 1):
        acc += c
        yield acc
        c = c * (l - i) // (i + 1)


# zeta(j) for a given 64-bit accuracy bucket is carried at scale 2**-(bucket
# + _ZETA_GUARD); the guard bits hold the few hundred ulps of rounding that
# ``_zeta_sweep`` certifies well inside 2**-bucket.
_ZETA_GUARD = 32
_LOG2_T3 = math.log2(3.0 + math.sqrt(8.0))  # T_n(3) ~ (3 + sqrt 8)**n / 2


@functools.cache
def _borwein_weights(bucket: int) -> Tuple[int, ...]:
    """Weights c_k = floor(2**s (d_n - d_k) / d_n), k < n, at s = bucket + _ZETA_GUARD.

    d_k = n sum_{i<=k} (n+i-1)! 4**i / ((n-i)! (2i)!) are the partial sums of
    the coefficients a_i of the shifted Chebyshev polynomial
    P_n(x) = T_n(1 - 2x) = sum_i a_i (-x)**i, so d_n = P_n(-1) = T_n(3)
    (Borwein, "An efficient algorithm for the Riemann zeta function", 2000,
    Algorithm 2).  The a_i come in integers from a_0 = 1 and
    a_{i+1} = 4 a_i (n+i)(n-i) / ((2i+1)(2i+2)).  n is the least with
    d_n >= 2**(s+1), checked in integers: the float guess starts below it,
    since T_n(3) < ((3 + sqrt 8)**n + 1) / 2 <= 2**s + 1/2 there.  One table
    serves every argument j of the bucket.
    """
    s = bucket + _ZETA_GUARD
    n = int((s + 1) / _LOG2_T3) - 1
    while True:
        a = 1
        d = [a]
        for i in range(n):
            a = 4 * a * (n + i) * (n - i) // ((2 * i + 1) * (2 * i + 2))
            d.append(d[-1] + a)
        if d[n] >> (s + 1):
            break
        n += 1
    return tuple(((d[n] - dk) << s) // d[n] for dk in d[:n])


def _zeta_row(bits: int, jmax: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """(nums, ulps, s): |nums[j-2] / 2**s - zeta(j)| <= ulps[j-2] / 2**s <= 2**-bits.

    The cached sweep of bits' 64-bit bucket to jmax plus the bucket's slack
    over bits, so bits that grow one for one with jmax, as ``rho_exact``'s,
    read one row per bucket."""
    bucket = -(-bits // 64) * 64
    return _zeta_sweep(bucket, jmax + bucket - bits)


@functools.cache
def _zeta_sweep(bucket: int, jmax: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """``_zeta_row`` for j = 2..jmax at the bucket's scale s = bucket + _ZETA_GUARD.

    Certificate, in ulps of 2**-s.  For real j >= 2, as 1/(1+x) is the sum
    of (-x)**k and x**k (log 1/x)**(j-1) integrates to Gamma(j) / (k+1)**j,
        eta(j) = sum_k (-1)**k / (k+1)**j
               = Gamma(j)**-1 int_0^1 (log 1/x)**(j-1) / (1+x) dx.
    Split d_n = (d_n - P_n(x)) + P_n(x) under the integral.  The first part
    over 1+x is the polynomial sum_{k<n} (d_n - d_k) (-x)**k, so with
    x_k = 2**s (d_n - d_k) / d_n
        2**s eta(j) = sum_{k<n} (-1)**k x_k / (k+1)**j + 2**s e,
    where e is the same integral with P_n(x) / d_n in place of 1.  The
    weight is positive and |P_n| <= 1 on [0, 1], so |e| <= eta(j) / d_n,
    under half an ulp as eta(j) < 1 and d_n >= 2**(s+1).  The code sums
    (-1)**k floor(c_k / (k+1)**j) with c_k = floor(x_k); for an integer m,
    floor(floor(x) / m) = floor(x / m), so each of the K summed terms is
    floored once, by less than 1 ulp, and as the signs alternate the K
    errors sum to less than ceil(K/2) ulps.  x_k / (k+1)**j falls with k,
    so the alternating terms from the first with c_k < (k+1)**j, where the
    sum stops, total less than that term, itself below 1 ulp as
    x_k < c_k + 1 <= (k+1)**j.  The integer sum is thus within
    ceil(K/2) + 3/2 ulps of 2**s eta(j).  The factor 2**(j-1) / (2**(j-1) - 1)
    to zeta(j) is at most 2, and its floor division costs under 1 ulp:
    err_ulps = K + 5 >= 2 ceil(K/2) + 4.  K <= n < s/2, so err_ulps stays
    within the 2**_ZETA_GUARD ulps of 2**-bucket below 2**32-bit buckets.

    Sweep.  Per argument j, q holds the live quotients
    q_k = c_k // (k+1)**(j-1), k >= 1; one floor division by k + 1 each
    turns them into c_k // (k+1)**j by the nested-floor identity, so no
    power is formed.  As c_k falls and (k+1)**j rises with k, they fall
    with k and their zeros are a suffix: cutting q at the first zero is the
    stop rule above, and a cut quotient stays zero at every larger j.  Then
    eta(j) = c_0 - sum q[0::2] + sum q[1::2] over K = 1 + len(q) terms.
    """
    c = _borwein_weights(bucket)
    b = range(2, len(c) + 1)  # k + 1 for the weights c_k, k >= 1
    q = list(map(floordiv, c[1:], b))
    nums, ulps = [], []
    for j in range(2, jmax + 1):
        q = list(itertools.takewhile(bool, map(floordiv, q, b)))
        half = 1 << (j - 1)
        nums.append(((c[0] - sum(q[0::2]) + sum(q[1::2])) * half) // (half - 1))
        ulps.append(6 + len(q))
    return tuple(nums), tuple(ulps), bucket + _ZETA_GUARD


def _exp_bracket(w: int, s: int) -> Tuple[int, int]:
    """Integers lo <= 2**s * exp(w / 2**s) <= hi, for an integer w >= 0.

    Halving t times makes h = w / 2**(s+t) <= 1/2, exact at g = s + t + 16
    bits.  The Taylor terms h**i/i! are formed one from the last, floored for
    lo and ceiled for hi, so each lo term is below and each hi term above the
    true one.  The sum stops at the first hi term n <= 1 ulp (each is at most
    half the last, rounded up); the true terms after it fall by h/(i+1) <= 1/4
    each, so the omitted tail is at most a third of term n, and hi adds term n
    once more.  Squaring t times (floor for lo, ceiling for hi) and the shift
    to scale s keep both sides.
    """
    t = max(0, w.bit_length() - s + 1)
    g = s + t + 16
    h = w << 16
    lo = hi = tlo = thi = 1 << g
    i = 0
    while thi > 1:
        i += 1
        tlo = tlo * h // (i << g)
        thi = -(-thi * h // (i << g))
        lo += tlo
        hi += thi
    hi += thi
    for _ in range(t):
        lo = lo * lo >> g
        hi = -(-hi * hi >> g)
    return lo >> (g - s), -(-hi >> (g - s))


def _lambert_w_float(x) -> np.ndarray:
    """Principal-branch W in float64, elementwise over an array of x >= 0.

    Halley iteration from log(x) - log(log(x)) above e, 1/2 on (1/4, e] and
    x(1 - x) below; an element stops once its step is under 1e-13 relative,
    after which the cubic convergence has left it at full float precision.
    Uncertified: ``lambert_w0`` seeds from it and then certifies a bracket.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value in Lambert W argument")
    big = x > math.e
    lx = np.log(np.where(big, x, math.e))
    small = np.minimum(x, 0.25)
    w = np.where(big, lx - np.log(lx), np.where(x > 0.25, 0.5, small * (1.0 - small)))
    active = np.ones(w.shape, dtype=bool)
    for _ in range(64):
        # Halley on f = w e^w - x with f, f', f'' divided by e^w, so that no
        # term grows like x: g = w - x e^-w (e^-w stays normal for w <= W(max))
        g = w - x * np.exp(-w)
        wp1 = w + 1.0
        dw = np.where(active, g / (wp1 - (w + 2.0) * g / (2.0 * wp1)), 0.0)
        w = w - dw
        active &= np.abs(dw) > 1e-13 * (np.abs(w) + 1e-3)
        if not active.any():
            break
    return np.maximum(w, 0.0)


def _lambert_w_seed(x: Fraction) -> float:
    """W(x) in floats, for any x > 0.

    Past the float range, Newton steps on w + log w = L = log x from
    w = L - log L; ``math.log`` takes the big integers of x.
    """
    try:
        return float(_lambert_w_float(float(x)))
    except OverflowError:  # float(x) is past the float range
        log_x = math.log(x.numerator) - math.log(x.denominator)
    w = log_x - math.log(log_x)
    for _ in range(8):
        w -= (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
    return w


def lambert_w0(x: Real, precision_bits: int = 64) -> HighPrecisionReal:
    """Principal-branch Lambert W on [0, inf), certified by a bracket.

    Integer Newton steps at scale s = precision_bits + 3 refine a float seed
    good to a few ulps (``_lambert_w_seed``: within 2**-40 of W for every x
    below 1e1000, 2**-39 at 1e5000); as each step doubles the correct bits,
    s.bit_length() steps suffice.  w*e^w increases on w >= 0, so the check
    (w-u) e^(w-u) <= x <= (w+u) e^(w+u) at u = 2**-s, made in integers with
    ``_exp_bracket`` rounding exp against it, puts W(x) within u of w: that
    is ``error_bound``, and a failed check raises
    ``PrecisionError``.  Then |w*exp(w) - x| is at most u times the largest
    (1 + v)e^v between w and W, which at v = W is x + e^W < 2.77 max(1, x)
    (e^W = x/W with W >= 0.567 when x >= 1; e^W < e^0.568 when x < 1) and
    grows under 2 % over one ulp, so the residual is below
    2**-precision_bits * max(1, x).
    """
    if precision_bits < 4:
        raise ValueError("precision_bits must be >= 4")
    xq = _to_fraction(x)
    if xq < 0:
        raise ValueError("argument must be nonnegative")
    if xq == 0:
        return HighPrecisionReal(Fraction(0), Fraction(0))
    s = precision_bits + 3
    one = 1 << s
    num = xq.numerator << 2 * s  # x * 2**2s = num / den
    den = xq.denominator
    w = round(Fraction(_lambert_w_seed(xq)) * one)
    for _ in range(s.bit_length()):
        e = _exp_bracket(w, s)[0]
        # Newton step in ulps: (w e^w - x) / ((1 + w) e^w), rounded to nearest
        f = (w * e * den - num) << s
        d = (one + w) * e * den
        step = (2 * f + d) // (2 * d)
        w = max(w - step, 0)
        # a step of r ulps leaves an error of about 1.08 r**2 / 2**s ulps, so
        # once 4 r**2 <= 2**s, w is within 1/2 + 0.3 ulp of W
        if 4 * step * step <= one:
            break
    w_lo = max(w - 1, 0)
    if not (w_lo * _exp_bracket(w_lo, s)[1] * den <= num
            <= (w + 1) * _exp_bracket(w + 1, s)[0] * den):
        raise PrecisionError("Lambert W refinement did not certify at x=%r" % (x,))
    return HighPrecisionReal(Fraction(w, one), Fraction(1, one))
