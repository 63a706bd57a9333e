"""Continued-fraction digit statistics under the Gauss measure.

Digits are sampled from the natural extension of the Gauss map (Nakada, Ito
and Tanaka 1977), not by iterating the map forward.  Write
s_n = q_{n-1}/q_n = [0; a_n, ..., a_2, a_1 + s_0] with s_0 drawn from the
Gauss measure (CDF log2(1 + s), so s_0 = 2**u - 1).  Given s_n, the rest of
the point has density (1 + s_n)/(1 + x s_n)^2 and the next digit has the law

    P(a_{n+1} >= i | a_1..a_n, s_0) = (1 + s_n)/(i + s_n)

(Iosifescu and Kraaikamp, *Metrical Theory of Continued Fractions*, 2002,
ch. 1).  So one uniform u makes one digit: a = floor((1 + s(1 - u))/u), which
is floor((1 + s)/u - s) computed without that difference, whose cancellation
could round it below 1: 1 - u is exact, every term is positive and the
numerator is at least 1 >= u, so a >= 1 always.  Then s <- 1/(a + s).  The
digits a_1..a_k are the true CF prefix of the point [0; a_1, a_2, ...] they
define, at any depth.

Why float error does not grow.  The forward map x -> 1/x - a stretches an
error by 1/x^2, about 3.4 bits per step, so 53 bits last some 15 digits.  The
backward map s -> s' = 1/(a + s) multiplies an error in s by s'^2 <= 1, and
two steps by (s' s'')^2 <= 1/4, because 1/(s' s'') = (a + s) a'' + 1 >= 2.

Per-digit bias, with eps = 2^-53 and the exact conditional law above as the
reference.  (1) ``RngStream.uniforms`` returns u = (j + 1) 2^-53 with j
uniform on [0, 2^53), so |P(u <= t) - t| <= eps for every t.  (2) Each step
rounds a + s and the reciprocal, a relative error of at most 2.01 eps in s'.
So the error e_n of the float s_n against the exact [0; a_n, ..., a_1 + s_0],
taken at the reported digits and the float s_0, obeys e_{n+2} <= e_n/4 +
3.02 eps from e_0 = 0, hence e_n < 4.1 eps; since d/ds (1 + s)/(i + s) =
(i - 1)/(i + s)^2 <= 1/4, that moves a tail probability by at most
1.03 eps.  (3) The computed (1 + s(1 - u))/u takes three roundings (the
product, the sum and the quotient; 1 - u is exact), is monotone in u and
lies within a relative 3.01 eps of the exact value, which moves the cut
point of {a >= i} in u by at most 3.01 eps (1 + s)/(i + s) <= 3.01 eps.
Together every conditional tail P(a >= i | past) is within 5.04 eps < 2^-50
of (1 + s_n)/(i + s_n); for s_0 the same argument, with expm1 good to an
ulp, bounds the CDF error by 4 eps.  Since u >= 2^-53, digits stop at about
2^54, and above 2^53 they are even integers; both touch tails of mass below
2^-50.  This is noise far below every tolerance in the suite.
"""

import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .precision import _to_fraction
from .rng import RngStream
from .simulation import McResult, _check_samples, _step_blocks, _unique_max_table

__all__ = [
    "expand_cf",
    "mc_cf_rho_table",
    "mc_cf_trimmed_table",
]

LN2 = math.log(2.0)


def expand_cf(x: float, k: int) -> Tuple[int, ...]:
    """Up to k CF digits of the exact binary value of x, by Euclid's algorithm.

    The digits are true digits of that dyadic rational; the tuple is shorter
    than k when its expansion terminates first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xq = _to_fraction(x)
    if not 0 < xq < 1:
        raise ValueError("x must lie in (0, 1)")
    num, den = xq.numerator, xq.denominator
    digits = []
    while num and len(digits) < k:
        a, rem = divmod(den, num)
        digits.append(a)
        num, den = rem, num
    return tuple(digits)


def _cf_digits(stream: RngStream, n: int, depth: int) -> Iterator[np.ndarray]:
    """Digits a_1..a_depth of n Gauss-measure trials, one float64 array per step.

    Every step yields the same array, overwritten by the next step: a caller
    that keeps a step's digits must copy them, and may overwrite them, since s
    is updated before the yield and the next step rebuilds the array from u and s.
    """
    s = stream.uniforms(n)
    s *= LN2
    np.expm1(s, out=s)
    u, a = np.empty(n), np.empty(n)
    for _ in range(depth):
        stream.uniforms(n, out=u)
        # a = floor((1 + s(1 - u))/u), then s <- 1/(a + s), in place
        np.subtract(1.0, u, out=a)
        a *= s
        a += 1.0
        a /= u
        np.floor(a, out=a)
        s += a
        np.divide(1.0, s, out=s)
        yield a


def _overflow_bin(k: int) -> int:
    """H_k, the last bin of a block's histogram of S_k - M_k: it counts every y >= H_k.

    (S_k - M_k)/(k ln k) tends to 1/ln 2 (Diamond and Vaaler 1986), so H_k
    is near 2.8 times the median at large k; the 64 serves small k.
    """
    return math.ceil(4 * k * math.log(k)) + 64


def mc_cf_rho_table(ks: Sequence[int], samples: int, seed: int = 0) -> List[McResult]:
    """P(max(a_1..a_k) is attained once) under the Gauss measure, one result per entry of ks.

    One pass to max(ks) serves every k, and the result for k depends on
    (seed, samples, k) only, not on the other ks or the worker count.
    """
    ks = list(ks)
    if not ks or min(ks) < 1:
        raise ValueError("need at least one k, and every k must be >= 1")
    _check_samples(samples, 10**4)
    return _unique_max_table(samples, seed, lambda stream, n: _cf_digits(stream, n, max(ks)), ks)


def _median_and_interval(counts: np.ndarray, scale: float) -> Tuple[float, int, int]:
    """np.median(y / scale) and [y_(l), y_(u)], where counts[v] of the integers y equal v.

    The median is np.median's in float64, bit for bit: the mean of the
    quotients at 0-based ranks (N - 1)//2 and N//2, one quotient at odd N.
    That is exact for any scale > 0: correctly rounded division by a positive
    constant is monotone, so the order statistics of the rounded quotients
    are the rounded quotients of the order statistics of y, and integers
    below 2^53 are float64 values.  [y_(l), y_(u)] is the distribution-free
    95 % interval for the median, at ranks l = floor(N/2 - 0.98 sqrt N) and
    u = ceil(N/2 + 0.98 sqrt N) in [0, N - 1], 1.96 SDs of the binomial(N,
    1/2) count below the median (ties only add coverage).  Order statistic
    i is the first v whose running count exceeds i.  The last bin holds
    every y at or above its index, so y_(u) there raises RuntimeError; it
    is the largest of the four ranks, so that covers the median too.
    """
    cum = np.cumsum(counts)
    n, half = int(cum[-1]), 0.98 * math.sqrt(cum[-1])
    mid_lo, mid_hi, lo, hi = np.searchsorted(
        cum, [(n - 1) // 2, n // 2, max(math.floor(n / 2 - half), 0),
              min(math.ceil(n / 2 + half), n - 1)], side="right")
    if hi == counts.size - 1:
        raise RuntimeError("the median's 95 %% interval reaches the overflow bin %d" % hi)
    return (float(mid_lo) / scale + float(mid_hi) / scale) / 2, int(lo), int(hi)


def mc_cf_trimmed_table(ks: Sequence[int], samples: int, seed: int = 0) -> List[McResult]:
    """Medians of (a_1 + ... + a_k - max)/(k log k), one result per entry of ks.

    One pass to max(ks) serves every k, and the result for k depends on
    (seed, samples, k) only, not on the worker count.  The float64 y = total -
    max is a nonnegative integer (a rounded sum or difference of integers is
    one).  Each block returns, per k, the uint16 histogram of min(y, H_k)
    (``_overflow_bin``; a block has at most 2^15 trials).  Both columns read
    their sum, in integers, through ``_median_and_interval``: the median,
    and as its standard error (y_(u) - y_(l) + 1)/(2 * 1.96 * k log k), whose
    + 1, y's lattice step, keeps it > 0.  An interval end in the overflow bin
    raises RuntimeError.
    """
    ks = list(ks)
    if not ks or min(ks) < 2:
        raise ValueError("need at least one k, and every k must be >= 2")
    _check_samples(samples, 10**4)
    # held to the end: blocks x sum_k (H_k + 1) x 2 bytes, 60 KB at the defaults
    # and 250 MB at 2^32 trials; at k = 10^5 one block's histogram is 9 MB
    tops = {k: _overflow_bin(k) for k in ks}

    def one_block(stream: RngStream, n: int) -> Dict[int, np.ndarray]:
        total, maxa, counts = np.zeros(n), np.zeros(n), {}
        iy = np.empty(n, dtype=np.intp)
        for k, a in enumerate(_cf_digits(stream, n, max(ks)), start=1):
            total += a
            np.maximum(maxa, a, out=maxa)
            if k in tops:
                np.minimum(np.subtract(total, maxa, out=a), tops[k], out=iy, casting="unsafe")
                counts[k] = np.bincount(iy, minlength=tops[k] + 1).astype(np.uint16)
        return counts

    per_block = _step_blocks(samples, seed, one_block)

    def row(k: int) -> McResult:
        counts = sum((block[k] for block in per_block), np.zeros(tops[k] + 1, dtype=np.int64))
        scale = k * math.log(k)
        try:
            median, lo, hi = _median_and_interval(counts, scale)
        except RuntimeError as exc:
            raise RuntimeError("k = %d: %s" % (k, exc)) from None
        return McResult(median, (hi - lo + 1) / (2 * 1.96 * scale))

    return [row(k) for k in ks]
