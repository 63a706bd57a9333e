"""Counter-based random streams for reproducible parallel Monte Carlo.

Each (seed, stream_index) pair keys an independent Philox counter stream, so
the i-th draw of stream j is a pure function of (seed, j, i) with no
sequential coupling between streams.  Work is partitioned across streams and
reduced in stream order, which makes every estimate bit-identical regardless
of how many workers ran it.
"""

import numpy as np
from numpy.random import Philox

from .expansion import DigitSequence

__all__ = ["RngStream"]

_TWO63 = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bit pattern of 1.0
_U64_MAX = (1 << 64) - 1
_ROW_CHUNK = 1 << 18  # words per chunk of luroth_row_maxima: 2 MB


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
        self.seed = seed
        self.stream_index = stream_index
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._bg = Philox(key=key)

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
        """luroth_digits(n * k).reshape(n, k).max(axis=1), without the digits.

        Neither the shift nor the increment decreases a word, and 2^63 // x
        does not increase as x grows, so the largest digit of a row is the
        digit of its smallest raw word.  The rows are drawn in order, in
        chunks of about _ROW_CHUNK words, and each chunk is reduced to its
        row minima at once; only the n minima are mapped to digits.
        """
        rows = max(1, _ROW_CHUNK // k)
        low = np.empty(n, dtype=np.uint64)
        for start in range(0, n, rows):
            m = min(rows, n - start)
            self._bg.random_raw(m * k).reshape(m, k).min(axis=1, out=low[start:start + m])
        return _to_digits(low)

    def digit_sequence(self, count: int) -> DigitSequence:
        """A sampled DigitSequence (no remainder; provenance marks it)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        digits = tuple(int(d) for d in self.luroth_digits(count))
        return DigitSequence(digits, "sampled", None)
