"""Continued-fraction digit statistics under the Gauss measure.

Digits are sampled from the natural extension of the Gauss map (Nakada, Ito
and Tanaka 1977), not by iterating the map forward.  Write
s_n = q_{n-1}/q_n = [0; a_n, ..., a_2, a_1 + s_0] with s_0 drawn from the
Gauss measure (CDF log2(1 + s), so s_0 = 2**u - 1).  Given s_n, the rest of
the point has density (1 + s_n)/(1 + x s_n)^2 and the next digit has the law

    P(a_{n+1} >= i | a_1..a_n, s_0) = (1 + s_n)/(i + s_n)

(Iosifescu and Kraaikamp, *Metrical Theory of Continued Fractions*, 2002,
ch. 1).  So one uniform u makes one digit: a = 1 + floor((1 + s)(1 - u)/u),
which is floor((1 + s)/u - s) written without the cancellation that could
round it to 0, and then s <- 1/(a + s).  The digits a_1..a_k are the true CF
prefix of the point [0; a_1, a_2, ...] they define, at any depth.

Why float error does not grow.  The forward map x -> 1/x - a stretches an
error by 1/x^2, about 3.4 bits per step, so 53 bits last some 15 digits.  The
backward map s -> s' = 1/(a + s) multiplies an error in s by s'^2 <= 1, and
two steps by (s' s'')^2 <= 1/4, because 1/(s' s'') = (a + s) a'' + 1 >= 2.

Per-digit bias, with eps = 2^-53 and the exact conditional law above as the
reference.  (1) ``RngStream.uniforms`` returns the exact centres of 2^52
equal cells, (j + 1/2) 2^-52, so |P(u <= t) - t| <= eps for every t.
(2) Each step rounds a + s
and the reciprocal, a relative error of at most 2.01 eps in s'.  So the
error e_n of the float s_n against the exact [0; a_n, ..., a_1 + s_0],
taken at the reported digits and the float s_0, obeys e_{n+2} <= e_n/4 +
3.02 eps from e_0 = 0, hence e_n < 4.1 eps; since d/ds (1 + s)/(i + s) =
(i - 1)/(i + s)^2 <= 1/4, that moves a tail probability by at most
1.03 eps.  (3) The computed (1 + s)(1 - u)/u takes four roundings, is
monotone in u and lies within a relative 4.01 eps of the exact value, which
moves the cut point of {a >= i} in u by at most 4.01 eps (1 + s)/(i + s)
<= 4.01 eps.  Together every conditional tail P(a >= i | past) is within
6.04 eps < 2^-50 of (1 + s_n)/(i + s_n); for s_0 the same argument, with
expm1 good to an ulp, bounds the CDF error by 4 eps.  Since u >= 2^-53,
digits stop at about 2^54, and above 2^53 they are even integers; both
touch tails of mass below 2^-50.  This is noise far below every tolerance in
the suite.
"""

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .precision import _to_fraction
from .rng import RngStream
from .simulation import _RHO_BLOCK, McResult, _step_blocks, _unique_max_table

__all__ = [
    "expand_cf",
    "mc_cf_rho_table",
    "mc_cf_trimmed_table",
]

LN2 = math.log(2.0)

_MIN_SAMPLES = 10**4


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


def _check_samples(samples: int):
    if samples < _MIN_SAMPLES:
        raise ValueError("samples must be >= %d" % _MIN_SAMPLES)


def _cf_digits(stream: RngStream, n: int, depth: int) -> Iterator[np.ndarray]:
    """Digits a_1..a_depth of n Gauss-measure trials, one float64 array per step."""
    s = np.expm1(stream.uniforms(n) * LN2)
    for _ in range(depth):
        u = stream.uniforms(n)
        # a = 1 + floor((1 + s)(1 - u)/u), then s <- 1/(a + s), in place
        a = 1.0 + s
        a *= 1.0 - u
        a /= u
        np.floor(a, out=a)
        a += 1.0
        s += a
        np.divide(1.0, s, out=s)
        yield a


def mc_cf_rho_table(k_max: int, samples: int, seed: int = 0,
                    workers: Optional[int] = None) -> List[McResult]:
    """P(max(a_1..a_k) is attained once) under the Gauss measure, k = 1..k_max.

    Row i is k = i + 1, as in ``mc_rho``; row k depends on (seed, samples, k)
    only, not on k_max or the worker count (None: one per usable core).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_samples(samples)
    return _unique_max_table(samples, seed, workers,
                             lambda stream, n: _cf_digits(stream, n, k_max))


def mc_cf_trimmed_table(ks: Sequence[int], samples: int, seed: int = 0,
                        workers: Optional[int] = None) -> List[McResult]:
    """Medians of (a_1 + ... + a_k - max)/(k log k), one result per entry of ks.

    One pass to max(ks) serves every k, and the result for k depends on
    (seed, samples, k) only, not on the worker count (None: one per usable
    core).  The reported standard error is the per-trial sample std over
    sqrt(n) (the result contract's definition); for these heavy-tailed
    statistics it is a dispersion diagnostic, not a median confidence radius.
    """
    ks = list(ks)
    if not ks or min(ks) < 2:
        raise ValueError("need at least one k, and every k must be >= 2")
    _check_samples(samples)
    stats = {k: np.empty(samples) for k in ks}

    def one_block(stream: RngStream, n: int) -> None:
        start = stream.stream_index * _RHO_BLOCK  # block b holds trials b * _RHO_BLOCK on
        total = np.zeros(n)
        maxa = np.zeros(n)
        for k, a in enumerate(_cf_digits(stream, n, max(ks)), start=1):
            total += a
            np.maximum(maxa, a, out=maxa)
            if k in stats:
                out = stats[k][start:start + n]
                np.subtract(total, maxa, out=out)
                out /= k * math.log(k)

    _step_blocks(samples, seed, workers, one_block)
    results = {}
    for k, x in stats.items():
        # the std first: the median below reorders x in place
        se = float(np.std(x, ddof=1) / math.sqrt(samples))
        results[k] = McResult(float(np.median(x, overwrite_input=True)), se)
    return [results[k] for k in ks]
