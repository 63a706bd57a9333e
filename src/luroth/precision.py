"""Exact and error-bounded numeric kernels.

Arbitrary-size integer and rational arithmetic (binomial coefficients, partial
binomial-row sums, Bernoulli numbers) plus two certified real-valued kernels:
Riemann zeta at integer arguments via Euler-Maclaurin summation in fixed-point
integers, whose payload is an integer numerator over 2**s with a certified
count of ulps (one per rounded term plus the remainder rounded up), and the
principal branch of Lambert W via a float seed refined by Newton steps in
fixed-point integer arithmetic.  The seed, ``_lambert_w_float``, is the
package's one float64 Lambert W: a vectorised Halley iteration, also used
uncertified where a W value only feeds a float result (B(x) and the J2 series
in ``trimming``).

Real results are carried as ``HighPrecisionReal``: an exact rational payload
(usually dyadic; for zeta, the fixed-point numerator over 2**s) together with
a conservative absolute error bound.  It is a record, not a number type:
callers read ``value`` and ``error_bound`` and combine them in their own
integer or rational arithmetic, stating their own bounds.
"""

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

import numpy as np

Real = Union[int, float, Fraction]

__all__ = [
    "HighPrecisionReal",
    "PrecisionError",
    "bernoulli_number",
    "bernoulli_triangle",
    "binomial",
    "lambert_w0",
    "zeta_int",
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


def _quantize(x: Fraction, bits: int) -> Fraction:
    # nearest point on the dyadic grid 2**-bits; off by at most 2**-(bits+1)
    return Fraction(round(x * (1 << bits)), 1 << bits)


@dataclass(frozen=True)
class HighPrecisionReal:
    """A real number as an exact stored value plus an absolute error bound.

    ``value`` is the exact rational payload, ``error_bound`` a certified bound
    on ``|value - true|`` (zero means the value is exact), ``precision_bits``
    the resolution the value was requested at (0 for exact quantities).
    """

    value: Fraction
    error_bound: Fraction
    precision_bits: int = 0

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")

    def __float__(self) -> float:
        return float(self.value)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exact; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n >= 0 and k >= 0")
    if k > n:
        return 0
    return math.comb(n, k)


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
    acc = 0
    c = 1
    for i in range(l + 1):
        acc += c
        yield acc
        c = c * (l - i) // (i + 1)


# Bernoulli numbers B_m (B_1 = -1/2 convention), rebuilt at least twice as
# long under a lock whenever a larger index is asked for, so the zeta kernel
# stays thread-safe.
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]
_BERNOULLI_LOCK = threading.Lock()


def _bernoulli_upto(m: int) -> List[Fraction]:
    """[B_0, B_1, ..., B_m] as a new list (possibly longer)."""
    with _BERNOULLI_LOCK:
        if len(_BERNOULLI) <= m:
            n = max(m // 2, len(_BERNOULLI))
            # tangent numbers T_1..T_n in integers (Brent and Harvey, "Fast
            # computation of Bernoulli, tangent and secant numbers", 2011);
            # then |B_2k| = 2k T_k / (4^k (4^k - 1)), of sign (-1)^(k+1)
            t = [0, 1] + [0] * (n - 1)
            for k in range(2, n + 1):
                t[k] = (k - 1) * t[k - 1]
            for k in range(2, n + 1):
                for i in range(k, n + 1):
                    t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
            table = [Fraction(1), Fraction(-1, 2)]
            for k in range(1, n + 1):
                b = Fraction(2 * k * t[k], 4**k * (4**k - 1))
                table += [b if k % 2 else -b, Fraction(0)]
            _BERNOULLI[:] = table
        return _BERNOULLI[:]


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m as an exact rational."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return _bernoulli_upto(m)[m]


def _zeta_em_remainder(j: int, q: int) -> Tuple[int, int, int]:
    """The first omitted Euler-Maclaurin term at cutoff n, as a / (b * n**p).

    That term is |B_{2q+2}| (j)_{2q+1} / ((2q+2)! n^(j+2q+1)); for a real
    exponent j >= 2 its magnitude bounds the truncation error of the sum in
    ``_zeta_fixed``.  Kept as integers so that comparisons and roundings
    against a dyadic grid need no rational normalisation.
    """
    b = bernoulli_number(2 * q + 2)
    return (
        abs(b.numerator) * math.perm(j + 2 * q, 2 * q + 1),
        b.denominator * math.factorial(2 * q + 2),
        j + 2 * q + 1,
    )


def _zeta_em_params(j: int, bits: int) -> Tuple[int, int]:
    """Choose cutoff N and correction order q so the remainder is below 2**-bits."""
    q = max(1, bits // 6 + 2)
    a, b, p = _zeta_em_remainder(j, q)
    a <<= bits  # remainder <= 2**-bits  <=>  a * 2**bits <= b * n**p
    n = max(2, (2 * q) // 5)
    while a > b * n**p:
        n *= 2
        if n > (1 << 26):
            raise PrecisionError("zeta parameter search diverged")
    while n > 2:
        cand = max(2, (3 * n) // 4)
        if cand < n and a <= b * cand**p:
            n = cand
        else:
            break
    return n, q


# zeta(j) for a given 64-bit accuracy bucket is carried at scale 2**-(bucket
# + _ZETA_GUARD): enough guard bits that the per-term floor errors stay far
# below the Euler-Maclaurin remainder, which is held at 2**-(bucket + 8).
_ZETA_GUARD = 32
_ZETA_CACHE = {}
_ZETA_LOCK = threading.Lock()


def _zeta_fixed(j: int, bits: int) -> Tuple[int, int, int]:
    """Fixed-point zeta(j): (num, err_ulps, s) with |num/2**s - zeta(j)| <= err_ulps/2**s.

    The certified bound err_ulps/2**s is at most 2**-bits.  Results are
    cached per 64-bit accuracy bucket, so sweeps over many k reuse one
    evaluation per argument, and every argument in a bucket shares the one
    scale s.
    """
    bucket = ((bits + 63) // 64) * 64
    s = bucket + _ZETA_GUARD
    key = (j, bucket)
    with _ZETA_LOCK:
        hit = _ZETA_CACHE.get(key)
    if hit is None:
        n, q = _zeta_em_params(j, bucket + 8)
        one = 1 << s
        # Euler-Maclaurin at cutoff n:
        #   zeta(j) = sum_{m<=n} m^-j + n^(1-j)/(j-1) - n^-j/2
        #             + sum_{i<=q} B_2i (j)_{2i-1} / ((2i)! n^(j+2i-1)) + R.
        # Each of the n power terms, the integral term, the half term and the
        # q Bernoulli terms is one exact rational times 2**s, reduced to an
        # integer by one floor division of its magnitude, the sign applied
        # afterwards; each such step is off by less than 1 ulp = 2**-s, so the
        # integer sum is within n + q + 2 ulps of the exact truncated sum.
        # |R| is at most the first omitted term (``_zeta_em_remainder``), here
        # <= 2**-(bucket+8), and is counted rounded up to whole ulps.  The
        # certified bound is the sum of the two, required to be <= 2**-bucket.
        num = sum(one // m**j for m in range(1, n + 1))
        num += one // ((j - 1) * n ** (j - 1))
        num -= one // (2 * n**j)
        npow = n ** (j + 1)
        rising = j  # (j)_{2i-1}
        fact = 2  # (2i)!
        table = _bernoulli_upto(2 * q)
        for i in range(1, q + 1):
            bern = table[2 * i]
            term = (abs(bern.numerator) * rising << s) // (bern.denominator * fact * npow)
            num += term if bern.numerator > 0 else -term
            rising *= (j + 2 * i - 1) * (j + 2 * i)
            fact *= (2 * i + 1) * (2 * i + 2)
            npow *= n * n
        a, b, p = _zeta_em_remainder(j, q)
        ulps = n + q + 2 - (-(a << s) // (b * n**p))
        if ulps > 1 << _ZETA_GUARD:
            raise PrecisionError("zeta(%d) could not certify 2^-%d" % (j, bucket))
        hit = (num, ulps)
        with _ZETA_LOCK:
            _ZETA_CACHE[key] = hit
    return hit[0], hit[1], s


def zeta_int(j: int, precision_bits: int = 128) -> HighPrecisionReal:
    """Riemann zeta at an integer argument j >= 2 with |error| <= 2**-precision_bits.

    Euler-Maclaurin summation in fixed-point integers; the returned bound
    counts one ulp per rounded term plus the first-omitted-term remainder
    rounded up to whole ulps, so it is certified rather than heuristic.
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise TypeError("argument must be an integer")
    if j < 2:
        raise ValueError("argument must be >= 2")
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")
    num, ulps, s = _zeta_fixed(j, precision_bits)
    return HighPrecisionReal(Fraction(num, 1 << s), Fraction(ulps, 1 << s), precision_bits)


def _exp_fixed(w: Fraction, scale_bits: int) -> Tuple[int, int]:
    """Fixed-point exp: returns (e, err_ulps) with |e*2**-s - exp(w)| <= err_ulps*2**-s.

    Argument halving until the Taylor argument is below 1/64, then squaring
    back up.  The ulp bound is conservative interval accounting (validated
    against a high-precision oracle in the test suite), not exact rounding
    analysis.  Requires w >= 0.
    """
    if w < 0:
        raise ValueError("argument must be nonnegative")
    if w == 0:
        return 1 << scale_bits, 0
    wf = float(w)
    t = 0
    while wf / (1 << t) > 0.015625:
        t += 1
    s2 = scale_bits + t + 18
    one = 1 << s2
    h = (w.numerator << s2) // (w.denominator << t)
    acc = one
    term = one
    i = 1
    while term:
        term = (term * h) // (one * i)
        acc += term
        i += 1
    e = acc
    for _ in range(t):
        e = (e * e) >> s2
    e_final = e >> (s2 - scale_bits)
    # relative error <= 2**t * (3i+8) ulps at scale s2; 4x safety margin
    rel_num = (3 * i + 8) << t
    err_ulps = 4 * ((e_final * rel_num) // (1 << s2) + 3)
    return e_final, err_ulps


def _lambert_w_float(x) -> np.ndarray:
    """Principal-branch W in float64, elementwise over an array of x >= 0.

    Halley iteration from log(x) - log(log(x)) above e, 1/2 on (1/4, e] and
    x(1 - x) below; an element stops once its step is under 1e-13 relative,
    after which the cubic convergence has left it at full float precision.
    Uncertified: ``lambert_w0`` seeds from it and then checks the residual.
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
        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        dw = np.where(active, f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1)), 0.0)
        w = w - dw
        active &= np.abs(dw) > 1e-13 * (np.abs(w) + 1e-3)
        if not active.any():
            break
    return np.maximum(w, 0.0)


def lambert_w0(x: Real, precision_bits: int = 64) -> HighPrecisionReal:
    """Principal-branch Lambert W on [0, inf) with a certified residual.

    The returned value w satisfies |w*exp(w) - x| <= 2**-precision_bits * max(1, x),
    checked explicitly in exact arithmetic before returning; ``error_bound``
    additionally bounds |w - W(x)| through a lower bound on the derivative of
    w*exp(w) (which is >= 1 on the nonnegative axis).
    """
    if precision_bits < 4:
        raise ValueError("precision_bits must be >= 4")
    xq = _to_fraction(x)
    if xq < 0:
        raise ValueError("argument must be nonnegative")
    if xq == 0:
        return HighPrecisionReal(Fraction(0), Fraction(0), precision_bits)
    target = max(Fraction(1), xq) / (1 << precision_bits)
    scale = precision_bits + 48
    w = Fraction(round(float(_lambert_w_float(float(xq))) * (1 << scale)), 1 << scale)
    for attempt in range(40):
        e_int, err_ulps = _exp_fixed(w, scale)
        e_val = Fraction(e_int, 1 << scale)
        e_err = Fraction(err_ulps, 1 << scale)
        resid_hi = abs(w * e_val - xq) + w * e_err
        if resid_hi <= target:
            deriv_lo = (e_val - e_err) * (1 + w)
            if deriv_lo < 1:
                deriv_lo = Fraction(1)  # true derivative >= 1 for w >= 0
            return HighPrecisionReal(w, resid_hi / deriv_lo, precision_bits)
        w = w - (w * e_val - xq) / (e_val * (1 + w))
        if w < 0:
            w = Fraction(0)
        w = Fraction(round(w * (1 << scale)), 1 << scale)
        if attempt % 5 == 4:
            scale += precision_bits // 2 + 32
    raise PrecisionError("Lambert W refinement did not certify at x=%r" % (x,))
