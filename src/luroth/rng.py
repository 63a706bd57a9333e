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
draws block after block can reuse one array.
"""

from typing import Optional

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

__all__ = ["RngStream"]

_ULP = 2.0**-53  # the grid step of uniforms
_U64_MAX = (1 << 64) - 1


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
