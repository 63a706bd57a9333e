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
_ROW_CHUNK = 1 << 16  # prefix words per chunk of luroth_row_maxima: 512 KB


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
        if not 0 <= stream_index < 1 << 32:  # one key word: never a child key
            raise ValueError("stream_index must fit in 32 bits")
        self._seed = seed
        self.stream_index = stream_index
        self._bg = PCG64DXSM(SeedSequence(seed, spawn_key=(stream_index,)))
        self._gen = Generator(self._bg)  # its doubles read the words of _bg
        self._lows = None  # the child stream of low words, opened by the first row maxima

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

        The largest digit of a row is the digit of its smallest raw word, as
        the word w maps to floor(1/u) for u = ((w >> 11) + 1) 2^-53: u does
        not decrease as w grows, and floor(1/u) does not increase.  Write a
        word as w = (h << 48) | l: its top 16 bits h and its low 48 bits l are
        independent and uniform.  So the smallest of k words is h* << 48 | l*,
        where h* is the least h of the row and, given all k prefixes, l* is
        the least of c independent uniform l, one for each of the c entries
        that attain h*.  Drawing just those c low parts gives exactly the law
        of the k-word row, its 2^-53 digit bias and its 2^53 cap included:

        * the k prefixes of row r are the first k 16-bit lanes (lane j of a
          word is its bits 16j to 16j + 15, on a little-endian host) of the
          next ceil(k/4) words of this stream; the padding lanes are unused;
        * its c low parts are the next c words of this stream's child stream,
          shifted right by 16, in row order.

        The child stream is keyed ``spawn_key=(stream_index, 1)``: SeedSequence
        reads it as two 32-bit words and every own key, as stream_index < 2^32,
        as one, so it is no stream's own key.  Both streams are read in order,
        so two calls draw what one call of their total draws.  A row costs
        ceil(k/4) + c words instead of k; k = 1 costs two words where
        luroth_digits costs one.  Rows are drawn in chunks of about
        _ROW_CHUNK prefix words, which change no draw.  The tie counts are
        summed in uint8, a cheaper pass, so they are c mod 256; they are exact
        unless their sum falls short of the number of ties, and only then are
        the rows counted in full.  A chunk whose rows all have c = 1, as every
        chunk at k = 1, skips the counts and ORs in its low words directly.
        The maxima are float64, as from ``luroth_digits``.
        """
        q = -(-k // 4)
        rows = max(1, _ROW_CHUNK // q)
        if self._lows is None:
            self._lows = PCG64DXSM(SeedSequence(self._seed, spawn_key=(self.stream_index, 1)))
        words = np.empty(n, dtype=np.uint64)
        for start in range(0, n, rows):
            m = min(rows, n - start)
            prefixes = self._bg.random_raw(m * q).view(np.uint16).reshape(m, 4 * q)[:, :k]
            h = prefixes.min(axis=1)
            tied = prefixes == h[:, None]
            total = np.count_nonzero(tied)
            low = self._lows.random_raw(total)
            low >>= np.uint64(16)
            chunk = words[start:start + m]
            np.left_shift(h, np.uint64(48), out=chunk)
            if total == m:  # every c is 1: row r's low part is low[r]
                chunk |= low
                continue
            ties = np.add.reduce(tied.view(np.uint8), axis=1, dtype=np.uint8)  # c mod 256
            if int(ties.sum()) != total:  # some c wrapped
                ties = np.count_nonzero(tied, axis=1)
            chunk |= np.minimum.reduceat(low, np.cumsum(ties, dtype=np.intp) - ties)
        words >>= np.uint64(11)
        u = words.astype(np.float64)
        u += 1.0
        u *= _ULP
        return _to_digits(u)
