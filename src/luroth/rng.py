"""Seekable random streams for reproducible parallel Monte Carlo.

Each (seed, stream_index) pair keys its own PCG64DXSM generator through
``SeedSequence(seed, spawn_key=(stream_index,))`` (O'Neill 2014), so the
i-th word of stream j is a pure function of (seed, j, i) with no sequential
coupling between streams.  A generator can jump to any word of its 2^128
period (``advance``), which gives a stream a second range of words.  Work
is partitioned across streams and reduced in stream order, which makes every
estimate bit-identical regardless of how many workers ran it.
"""

import numpy as np
from numpy.random import PCG64DXSM, SeedSequence

__all__ = ["RngStream"]

_TWO63 = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bit pattern of 1.0
_U64_MAX = (1 << 64) - 1
_ROW_CHUNK = 1 << 16  # prefix words per chunk of luroth_row_maxima: 512 KB
# Where luroth_row_maxima's low words start, in words from the start of the
# stream on its 2^128-word period; its docstring shows them apart from its own.
_LOW_RANGE = 1 << 126


def _to_digits(words: np.ndarray) -> np.ndarray:
    """The digit floor(2^63 / ((w >> 1) + 1)) of each raw word w, in place."""
    words >>= np.uint64(1)
    words += np.uint64(1)
    return np.floor_divide(_TWO63, words, out=words)


class RngStream:
    """One addressable stream of raw 64-bit words and derived variates."""

    def __init__(self, seed: int, stream_index: int = 0):
        if not 0 <= seed <= _U64_MAX:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= stream_index <= _U64_MAX:
            raise ValueError("stream_index must fit in 64 bits")
        self.stream_index = stream_index
        self._seq = SeedSequence(seed, spawn_key=(stream_index,))
        self._bg = PCG64DXSM(self._seq)
        self._lows = None  # the low-word range, opened by the first row maxima

    def _counter_range(self, offset: int) -> PCG64DXSM:
        """This stream's generator, from word ``offset`` on: its own words start at 0."""
        bg = PCG64DXSM(self._seq)
        bg.advance(offset)
        return bg

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of this stream."""
        return self._bg.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        """Uniform doubles in (0, 1): the exact centres (j + 1/2) 2^-52 of 2^52 cells.

        j = raw >> 12 becomes the mantissa of 1 + j 2^-52 in [1, 2), in place;
        subtracting 1 - 2^-53 is exact by Sterbenz's lemma, since both lie
        within a factor of 2 of each other.
        """
        raw = self._bg.random_raw(n)
        raw >>= np.uint64(12)
        raw |= _ONE_BITS
        u = raw.view(np.float64)
        u -= 1.0 - 2.0**-53
        return u

    def luroth_digits(self, n: int) -> np.ndarray:
        """n digits from the law P(d = m) = 1/(m(m+1)), as uint64.

        Inverse-CDF on the grid u = (j + 1) * 2^-63, j = raw >> 1, so u is
        uniform on the 2^63 points of (0, 1] and no word is ever redrawn: the
        digit floor(1/u) = floor(2^63 / (j + 1)) is computed in integer
        arithmetic, so the mapping is exact.  P(d >= m) is then
        floor(2^63 / m) / 2^63 instead of 1/m, a bias below 2^-63 per draw,
        documented noise far below every tolerance in the suite; digits are
        capped at 2^63.  Each word gives one digit, so the i-th digit depends
        on the i-th word alone, whatever the sizes of the draws.
        """
        return _to_digits(self._bg.random_raw(n))

    def luroth_row_maxima(self, n: int, k: int) -> np.ndarray:
        """n row maxima, in law luroth_digits(n * k).reshape(n, k).max(axis=1).

        The largest digit of a row is the digit of its smallest raw word, as
        neither the shift nor the increment of _to_digits decreases a word and
        2^63 // x does not increase as x grows.  Write a word as
        w = (h << 48) | l: its top 16 bits h and its low 48 bits l are
        independent and uniform.  So the smallest of k words is h* << 48 | l*,
        where h* is the least h of the row and, given all k prefixes, l* is
        the least of c independent uniform l, one for each of the c entries
        that attain h*.  Drawing just those c low parts gives exactly the law
        of the k-word row, its 2^-63 digit bias included:

        * the k prefixes of row r are the first k 16-bit lanes (lane j of a
          word is its bits 16j to 16j + 15, on a little-endian host) of the
          next ceil(k/4) words of this stream; the padding lanes are unused;
        * its c low parts are the next c words of the range from word
          _LOW_RANGE of this stream, shifted right by 16, in row order.

        Offsets count words of this stream's 2^128-word period.  Its own words
        lie below 2^126 while fewer than 2^126 are drawn, and the low words
        from 2^126 on, so no word is used twice while fewer than 3 * 2^126
        low words are drawn.  Both ranges are read in order, so two calls draw
        what one call of their total draws.  A row costs ceil(k/4) + c words
        instead of k; k = 1 costs two words where luroth_digits costs one.
        Rows are drawn in chunks of about _ROW_CHUNK prefix words, which
        change no draw.  The tie counts are summed in uint8, a cheaper pass,
        so they are c mod 256; they are exact unless their sum falls short of
        the number of ties, and only then are the rows counted in full.
        """
        q = -(-k // 4)
        rows = max(1, _ROW_CHUNK // q)
        if self._lows is None:
            self._lows = self._counter_range(_LOW_RANGE)
        words = np.empty(n, dtype=np.uint64)
        for start in range(0, n, rows):
            m = min(rows, n - start)
            prefixes = self._bg.random_raw(m * q).view(np.uint16).reshape(m, 4 * q)[:, :k]
            h = prefixes.min(axis=1)
            tied = prefixes == h[:, None]
            ties = np.add.reduce(tied.view(np.uint8), axis=1, dtype=np.uint8)  # c mod 256
            total = np.count_nonzero(tied)
            if int(ties.sum()) != total:  # some c wrapped
                ties = np.count_nonzero(tied, axis=1)
            low = self._lows.random_raw(total)
            low >>= np.uint64(16)
            chunk = words[start:start + m]
            np.left_shift(h, np.uint64(48), out=chunk)
            chunk |= np.minimum.reduceat(low, np.cumsum(ties, dtype=np.intp) - ties)
        return _to_digits(words)
