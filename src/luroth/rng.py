"""Keyed random streams for reproducible parallel Monte Carlo.

Each (seed, stream_index) pair keys its own PCG64DXSM generator through
``SeedSequence(seed, spawn_key=(stream_index,))`` (O'Neill 2014), so the
i-th word of stream j is a pure function of (seed, j, i) with no sequential
coupling between streams.  Work is partitioned across streams and reduced in
stream order, which makes every estimate bit-identical regardless of how
many workers ran it.

Uniforms and digits are float64 on one grid: the word w gives
u = ((w >> 11) + 1) 2^-53 in (0, 1], and the digit floor(1/u), computed
exactly (``_to_digits``).  Both take an ``out=`` buffer, so a kernel that
draws block after block can reuse one array.  Two samplers draw a statistic of
many digits in law instead of the digits: the maximum of a row
(``luroth_row_maxima``) and the sum and maximum of a stretch
(``luroth_sum_max``).
"""

from typing import Optional, Tuple

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

__all__ = ["RngStream"]

_ULP = 2.0**-53  # the grid step of uniforms
_U64_MAX = (1 << 64) - 1
_TAIL_BITS = 10  # luroth_sum_max's largest L: 2^(53 + L) must be a uint64
_TAIL_CHUNK = 1 << 16  # tail words drawn at once: 512 KB
_LOW32 = np.uint64(0xFFFFFFFF)


def _to_digits(u: np.ndarray) -> np.ndarray:
    """The Luroth digit floor(1/u) of each u = (j + 1) 2^-53, j < 2^53, in place.

    The float route is exact.  fl(1/u) = fl(q) for q = 2^53/(j + 1), as a
    power of 2 scales exactly.  Either q is an integer, which a double holds,
    or it lies at least 1/(j + 1) below the next integer.  Half an ulp of q
    is at most q 2^-53 = 1/(j + 1), with equality only when q is a power of
    2, an integer; so in the second case it is strictly less, and fl(q)
    stays below that next integer.  Rounding is monotone and floor(q) < 2^53
    is a double, so fl(q) >= floor(q).  Hence floor(fl(1/u)) equals
    floor(2^53/(j + 1)), a true digit of u.
    """
    np.divide(1.0, u, out=u)
    return np.floor(u, out=u)


class RngStream:
    """One addressable stream of raw 64-bit words and derived variates."""

    def __init__(self, seed: int, stream_index: int = 0):
        if not 0 <= seed <= _U64_MAX:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= stream_index < 1 << 32:  # one 32-bit key word: no sampler needs more
            raise ValueError("stream_index must fit in 32 bits")
        self.stream_index = stream_index
        self._bg = PCG64DXSM(SeedSequence(seed, spawn_key=(stream_index,)))
        self._gen = Generator(self._bg)  # its doubles read the words of _bg

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of this stream."""
        return self._bg.random_raw(n)

    def uniforms(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """n uniform doubles u = ((w >> 11) + 1) 2^-53 in (0, 1], float64.

        One raw word w each, so the i-th value depends on the i-th word alone,
        whatever the sizes of the draws.  numpy's doubles are (w >> 11) 2^-53
        in [0, 1); adding 2^-53 is exact.  u is uniform on the 2^53 points of
        the grid, so |P(u <= t) - t| <= 2^-53 for every t, and u = 1 has
        probability 2^-53.  ``out``, if given, is an n-element float64 array
        that receives the values and is returned.
        """
        u = self._gen.random(n, out=out)
        u += _ULP
        return u

    def luroth_digits(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """n digits from the law P(d = m) = 1/(m(m+1)), as float64 integers.

        Inverse CDF: the digit floor(1/u) of u = uniforms(n), which
        ``_to_digits`` computes exactly in floats, so each word gives one
        digit and none is ever redrawn.  P(d >= m) is then
        floor(2^53 / m) / 2^53 instead of 1/m, a bias below 2^-53 per draw,
        noise far below every tolerance in the suite; digits are capped at
        2^53.  ``out`` is as for ``uniforms``.
        """
        return _to_digits(self.uniforms(n, out=out))

    def luroth_row_maxima(self, n: int, k: int) -> np.ndarray:
        """n row maxima, in law luroth_digits(n * k).reshape(n, k).max(axis=1).

        The largest digit of a row is floor(1/t) for t the least of its k
        uniforms, and the least of k uniforms has a closed inverse CDF
        (Devroye, Non-Uniform Random Variate Generation, 1986, ch. V): for u
        uniform on (0, 1], t = 1 - u^(1/k) = -expm1(log(u)/k) has
        P(t <= x) = P(u >= (1 - x)^k) = 1 - (1 - x)^k on [0, 1].  So a row
        costs one raw word, whatever k: u = uniforms(n), whose log is finite,
        gives t, which is snapped up onto the 2^-53 grid of uniforms as
        max(ceil(t 2^53), 1) 2^-53 and mapped by ``_to_digits``, exactly and
        with its 2^53 cap.  Two calls draw what one call of their total draws.

        Bias: u's grid moves P(t <= x) by at most 2^-53.  log, the division and
        expm1, whose condition number is at most 1 for arguments <= 0, move t
        by a few ulps relative, and the snap moves it up by less than 2^-53;
        the density k(1 - x)^(k-1) <= k turns a shift of t by at most 2^-53
        into at most k 2^-53 of probability, the order of the grid bias of k
        uniforms drawn one by one.  The maxima are float64, as from
        ``luroth_digits``.
        """
        t = self.uniforms(n)
        np.log(t, out=t)
        t /= k
        np.expm1(t, out=t)
        t *= -2.0**53  # t 2^53, exactly: a power of 2 scales without rounding
        np.ceil(t, out=t)
        np.maximum(t, 1.0, out=t)
        t *= _ULP
        return _to_digits(t)

    def luroth_sum_max(self, n: int) -> Tuple[int, int]:
        """(S, M), the sum and the largest of n digits, in law; 1 <= n <= 2^52.

        The counts of the values 1..V and of the tail {d > V}, of masses
        1/(v(v+1)) and 1/(V + 1), are one ``Generator.multinomial`` draw, for
        V = 2^L - 1 with L = n.bit_length() // 2 held to [1, 10]: V near
        sqrt(n) balances V categories against about n/V tail digits.  Each
        tail digit takes one raw word, _TAIL_CHUNK words at a time, so memory
        does not grow with n.  S = sum v c_v plus the tail digits, and M is
        the largest tail digit, or else the largest v with c_v > 0; both are
        exact.  sum v c_v is exact in int64, since V n < 2^62; a tail digit is
        below 2^63, so a chunk is summed as its 32-bit halves, each sum below
        2^48 in uint64.

        Multinomial bias.  numpy draws c_j ~ Binomial(n - c_1 - ... - c_{j-1},
        p_j/r_j) in category order, p_j = fl(1/(j(j+1))) and r_j = 1 - p_1 -
        ... - p_{j-1} accumulated in floats, and the tail takes what is left
        (a test pins this).  Exactly, r_j = 1/j and p_j/r_j = q_j = 1/(j+1).
        Each p_i is within 2^-53 relative and each subtraction rounds by at
        most 2^-53 r_{i+1}, so fl(r_j) is within 2^-53 (ln j + 2) of 1/j, and
        the computed ratio is q_j (1 + e_j), |e_j| <= j 2^-53 (ln j + 3).  By
        the chain rule for the Kullback-Leibler divergence and KL(Bern(a) ||
        Bern(b)) <= (a - b)^2/(b(1 - b)), with about n/j trials at step j,
        KL <= sum_j (n/j) e_j^2 q_j/(1 - q_j) = sum_j n e_j^2/j^2 <= n V
        2^-106 (ln V + 3)^2; by Pinsker the counts are within total variation
        2^-53 (ln V + 3) sqrt(n V/2) of exact: 2.5e-8 at n = 10^12, V = 1023.
        The bound grows with V, one reason L stops at 10 (_TAIL_BITS).  Digits
        drawn one by one would carry up to n 2^-53 (1.1e-4 at 10^12).  numpy's
        binomial (inversion below a mean of 30, BTPE above: Kachitvichyanukul
        and Schmeiser, Commun. ACM 31, 1988) is taken as exact.

        Tail map.  Given d > V, P(d >= j) = (V + 1)/j for j > V, so by
        inversion d = floor((V + 1)/u) = floor(2^(53 + L)/(i + 1)) for u =
        (i + 1) 2^-53, i = w >> 11.  With L <= 10 the numerator 2^(53 + L) is
        a uint64 and integer floor division is exact: P(d >= j) =
        floor(2^(53 + L)/j) 2^-53, within 2^-53 of (V + 1)/j, d >= V + 1, and
        d is capped at 2^(53 + L).  ``_to_digits``' float argument does not
        carry over: 2^L fl(2^53/(i + 1)) carries 2^L times the quotient's
        rounding error, which can cross an integer that the exact value does
        not.
        """
        bits = min(_TAIL_BITS, max(1, n.bit_length() // 2))
        v = np.arange(1, 1 << bits)
        counts = self._gen.multinomial(n, np.append(1.0 / (v * (v + 1.0)), 2.0**-bits))
        total = int(counts[:-1] @ v)
        seen = np.flatnonzero(counts[:-1])
        biggest = int(seen[-1]) + 1 if seen.size else 0
        top = np.uint64(1 << (53 + bits))
        for left in range(int(counts[-1]), 0, -_TAIL_CHUNK):
            d = self.raw64(min(left, _TAIL_CHUNK))
            d >>= np.uint64(11)
            d += np.uint64(1)
            np.floor_divide(top, d, out=d)
            total += (int((d >> np.uint64(32)).sum()) << 32) + int((d & _LOW32).sum())
            biggest = max(biggest, int(d.max()))
        return total, biggest
