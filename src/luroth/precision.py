"""Exact and error-bounded numeric kernels.

Arbitrary-size integer and rational arithmetic (partial binomial-row sums,
Bernoulli numbers) plus two certified real-valued kernels.

Riemann zeta at integer arguments comes from Euler-Maclaurin summation in
fixed-point integers; its payload is an integer numerator over 2**s with a
certified count of ulps (one per rounded term plus the remainder rounded up).
The cutoff and the Euler-Maclaurin order are chosen per argument, for the
fewest terms, by a float estimate; the remainder is still certified by an
integer check on the first omitted term.

The principal branch of Lambert W comes from a float seed refined by Newton
steps in fixed-point integers, certified by a bracket from an integer exp
rounded down and up.  The seed, ``_lambert_w_float``, is the package's one
float64 Lambert W: a vectorised Halley iteration, also used uncertified where
a W value only feeds a float result (B(x) and the J2 series in ``trimming``).

``HighPrecisionReal`` is the package's one certified-real record: an exact
rational payload (usually dyadic; for zeta, the fixed-point numerator over
2**s) together with a conservative absolute error bound.  It is a record,
not a number type: callers read ``value`` and ``error_bound`` and combine
them in their own integer or rational arithmetic, stating their own bounds.
Exact quantities are returned as plain ``Fraction`` values instead.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Tuple, Union

import numpy as np

Real = Union[int, float, Fraction]

__all__ = [
    "HighPrecisionReal",
    "PrecisionError",
    "bernoulli_number",
    "bernoulli_triangle",
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
    acc = 0
    c = 1
    for i in range(l + 1):
        acc += c
        yield acc
        c = c * (l - i) // (i + 1)


# Bernoulli numbers B_m (B_1 = -1/2 convention).  A larger index rebinds the
# global to a new tuple at least twice as long.  Tuples never change, so
# callers share them without a lock, and each caller indexes the tuple it read
# or built, never the global again: a concurrent rebind may be shorter.
_BERNOULLI = (Fraction(1), Fraction(-1, 2))


def _bernoulli_upto(m: int) -> Tuple[Fraction, ...]:
    """(B_0, B_1, ..., B_m, ...): a shared table that holds index m."""
    global _BERNOULLI
    table = _BERNOULLI
    if len(table) <= m:
        n = max(m // 2, len(table))
        # tangent numbers T_1..T_n in integers (Brent and Harvey, "Fast
        # computation of Bernoulli, tangent and secant numbers", 2011);
        # then |B_2k| = 2k T_k / (4^k (4^k - 1)), of sign (-1)^(k+1)
        t = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, n + 1):
            for i in range(k, n + 1):
                t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
        grown = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, n + 1):
            b = Fraction(2 * k * t[k], 4**k * (4**k - 1))
            grown += [b if k % 2 else -b, Fraction(0)]
        table = _BERNOULLI = tuple(grown)
    return table


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


# log2(e), log2(2 pi), and log2 zeta(4), which bounds log2 zeta(2q+2) for q >= 1
_LOG2_E = 1.0 / math.log(2.0)
_LOG2_2PI = math.log2(2.0 * math.pi)
_LOG2_ZETA4 = math.log2(math.pi**4 / 90.0)


def _zeta_em_params(j: int, bits: int) -> Tuple[int, int]:
    """Choose cutoff n and correction order q so the remainder is below 2**-bits.

    ``_zeta_fixed`` pays about one big-integer division for each of its n
    power terms and q Bernoulli terms, so each argument gets the pair with
    the fewest terms n + q: the trade between cutoff and order of Borwein,
    Bradley and Crandall ("Computational strategies for the Riemann zeta
    function", J. Comput. Appl. Math. 121, 2000).  Large j needs few power
    terms and q = 1; small j many of both.  A float estimate ranks the pairs:
    |B_2m| = 2 (2m)! zeta(2m) / (2 pi)^2m and zeta(2q+2) <= zeta(4) put the
    first omitted term below 2 zeta(4) (j)_{2q+1} / ((2 pi)^(2q+2) n^(j+2q+1)),
    which gives each q its smallest n; n + q falls and then rises with q, so
    the search stops at the first rise.  The estimate never enters the
    certificate: n is raised until the integer check a * 2**bits <= b * n**p
    on the exact term of ``_zeta_em_remainder`` holds.
    """
    best = math.inf
    # log2 of 2 zeta(4) 2**bits / ((2 pi)^2 (j-1)!), the part of the bound free of q
    c = bits + 1 + _LOG2_ZETA4 - 2 * _LOG2_2PI - math.lgamma(j) * _LOG2_E
    for q in range(1, bits + 1):
        p = j + 2 * q + 1
        e = (c + math.lgamma(p) * _LOG2_E - 2 * q * _LOG2_2PI) / p  # log2 of the n needed
        if e > 26:
            continue  # n past 2**26: far from the fewest terms
        cost = (2.0**e if e > 1.0 else 2.0) + q
        if cost >= best:
            break  # the cost has passed its minimum
        best, best_q, best_e = cost, q, e
    if best == math.inf:
        raise PrecisionError("zeta parameter search diverged")
    n, q = max(2, math.ceil(2.0**best_e)), best_q
    a, b, p = _zeta_em_remainder(j, q)
    a <<= bits  # remainder <= 2**-bits  <=>  a * 2**bits <= b * n**p
    while a > b * n**p:
        n += 1
    return n, q


# zeta(j) for a given 64-bit accuracy bucket is carried at scale 2**-(bucket
# + _ZETA_GUARD): enough guard bits that the per-term floor errors stay far
# below the Euler-Maclaurin remainder, which is held at 2**-(bucket + 8).
_ZETA_GUARD = 32
_ZETA_CACHE = {}


def _zeta_fixed(j: int, bits: int) -> Tuple[int, int, int]:
    """Fixed-point zeta(j): (num, err_ulps, s) with |num/2**s - zeta(j)| <= err_ulps/2**s.

    The certified bound err_ulps/2**s is at most 2**-bits.  Results are
    cached per 64-bit accuracy bucket, so sweeps over many k reuse one
    evaluation per argument, and every argument in a bucket shares the one
    scale s.
    """
    bucket = ((bits + 63) // 64) * 64
    key = (j, bucket)
    # a dict read and a dict store are atomic, and two threads that miss the
    # same key store equal entries, so the cache takes no lock
    hit = _ZETA_CACHE.get(key)
    if hit is None:
        s = bucket + _ZETA_GUARD
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
        hit = (num, ulps, s)
        _ZETA_CACHE[key] = hit
    return hit


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
    return HighPrecisionReal(Fraction(num, 1 << s), Fraction(ulps, 1 << s))


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
