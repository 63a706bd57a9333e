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

    def _grid(self, n: int) -> np.ndarray:
        """n grid points j = raw >> 1 in [1, 2^63 - 1], as a fresh uint64 array.

        j = 0 (raw word 0 or 1, probability 2^-63 per draw) is redrawn from
        the next words of the stream, in index order, until no zero is left.
        """
        j = self._bg.random_raw(n)
        j >>= np.uint64(1)
        while not j.all():
            zeros = j == 0
            j[zeros] = self._bg.random_raw(int(zeros.sum())) >> np.uint64(1)
        return j

    def luroth_digits(self, n: int) -> np.ndarray:
        """n digits from the law P(d = m) = 1/(m(m+1)), as uint64.

        Inverse-CDF on the grid u = j * 2^-63 of ``_grid``, j in
        [1, 2^63 - 1]: the digit floor(1/u) = floor(2^63 / j) is computed in
        integer arithmetic, so the mapping is exact.  Redrawing j = 0
        (probability 2^-63 per draw) caps digits at 2^63 and biases each draw
        by less than 2^-63, documented noise far below every tolerance in the
        suite.  ``luroth_row_maxima`` reads the same grid, so its rows equal
        the row maxima of these digits.
        """
        j = self._grid(n)
        return np.floor_divide(_TWO63, j, out=j)

    def luroth_row_maxima(self, n: int, k: int) -> np.ndarray:
        """luroth_digits(n * k).reshape(n, k).max(axis=1), without the digits.

        floor(2^63 / j) does not increase as j grows, so the largest digit of
        a row is the digit of its smallest grid point: max_i floor(2^63 / j_i)
        = floor(2^63 / min_i j_i).  The grid, redraws included, is the one
        ``luroth_digits`` maps, so the rows agree draw for draw; only n
        divisions are made instead of n * k.
        """
        return _TWO63 // self._grid(n * k).reshape(n, k).min(axis=1)

    def digit_sequence(self, count: int) -> DigitSequence:
        """A sampled DigitSequence (no remainder; provenance marks it)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        digits = tuple(int(d) for d in self.luroth_digits(count))
        return DigitSequence(digits, "sampled", None)
