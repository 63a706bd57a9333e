"""The Luroth map, exact digit expansions, and the digit law.

Everything here is exact rational arithmetic.  Float inputs are converted to
their exact binary value first, so the digits produced are the true Luroth
digits of that dyadic rational (iterating the map in floating point instead
would shed roughly log2(digit) bits per step).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

from .precision import HighPrecisionReal, _to_fraction

Real = Union[int, float, Fraction]

__all__ = [
    "DigitSequence",
    "digit",
    "expand",
    "luroth_step",
    "max_cdf_exact",
    "pmf",
    "preimage_length",
    "reconstruct",
    "sample_digit",
    "tail",
    "weight",
]


@dataclass(frozen=True)
class DigitSequence:
    """A finite run of Luroth digits with provenance.

    ``remainder`` is the exact state of the orbit after the recorded digits
    and is only present for exact expansions; sampled sequences carry None.
    """

    digits: Tuple[int, ...]
    provenance: str = "exact-expansion"
    remainder: Optional[Fraction] = None

    def __post_init__(self):
        if self.provenance not in ("exact-expansion", "sampled"):
            raise ValueError("unknown provenance %r" % self.provenance)
        if not all(isinstance(d, int) and d >= 1 for d in self.digits):
            raise ValueError("digits must be integers >= 1")

    def __len__(self) -> int:
        return len(self.digits)


def _check_unit(x: Fraction) -> Fraction:
    if x <= 0 or x > 1:
        raise ValueError("argument must lie in (0, 1], got %s" % x)
    return x


def digit(x: Real) -> int:
    """First Luroth digit of x in (0, 1]: the unique n with 1/(n+1) < x <= 1/n.

    Equals floor(1/x); the boundary x = 1/n belongs to digit n because the
    branch intervals are open on the left.
    """
    xq = _check_unit(_to_fraction(x))
    return xq.denominator // xq.numerator


def luroth_step(x: Real) -> Fraction:
    """One step of the Luroth map: n*((n+1)*x - 1) with n the digit of x."""
    xq = _check_unit(_to_fraction(x))
    n = xq.denominator // xq.numerator
    return n * ((n + 1) * xq - 1)


def expand(x: Real, count: int) -> DigitSequence:
    """The first ``count`` Luroth digits of x, with the exact remainder.

    digits[i] is the digit of the i-th iterate; remainder is the orbit point
    after ``count`` steps, so reconstruct-with-remainder reproduces x exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    xq = _check_unit(_to_fraction(x))
    digits = []
    for _ in range(count):
        n = xq.denominator // xq.numerator
        digits.append(n)
        xq = n * ((n + 1) * xq - 1)
    return DigitSequence(tuple(digits), "exact-expansion", xq)


def reconstruct(d: Union[DigitSequence, Sequence[int], Iterable[int]]) -> Fraction:
    """Truncation value of a digit list: r(d1..dn) = 1/(d1+1) + r(d2..dn)/(d1(d1+1)).

    This inverts the step identity x = 1/(n+1) + L(x)/(n(n+1)); feeding the
    digits of ``expand(x, n)`` back in and adding remainder * weight(digits)
    recovers x exactly.
    """
    if isinstance(d, DigitSequence):
        digits = d.digits
    else:
        digits = tuple(d)
    if not digits:
        raise ValueError("digit list must be nonempty")
    if not all(isinstance(n, int) and n >= 1 for n in digits):
        raise ValueError("digits must be integers >= 1")
    acc = Fraction(0)
    for n in reversed(digits):
        acc = Fraction(1, n + 1) + acc / (n * (n + 1))
    return acc


def weight(digits: Union[DigitSequence, Sequence[int]]) -> Fraction:
    """Product of 1/(d*(d+1)) over a digit list: the cylinder length."""
    if isinstance(digits, DigitSequence):
        digits = digits.digits
    acc = Fraction(1)
    for n in digits:
        acc /= n * (n + 1)
    return acc


def pmf(n: int) -> Fraction:
    """P(digit = n) = 1/(n(n+1)) for the Luroth digit law."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(1, n * (n + 1))


def tail(n: int) -> Fraction:
    """P(digit >= n) = 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(1, n)


def max_cdf_exact(k: int, n: int) -> HighPrecisionReal:
    """P(max of k IID digits <= n) = (1 - 1/(n+1))^k, exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return HighPrecisionReal(Fraction(n, n + 1) ** k, Fraction(0), 0)


def sample_digit(u: Real) -> int:
    """Inverse-CDF digit sampler: floor(1/u) for u in (0, 1).

    Agrees with ``digit`` on every rational u; under uniform u the output
    follows the Luroth digit law.
    """
    uq = _to_fraction(u)
    if uq <= 0 or uq >= 1:
        raise ValueError("u must lie in (0, 1)")
    return uq.denominator // uq.numerator


def preimage_length(n: int, a: Real, b: Real) -> Fraction:
    """Length of the branch-n preimage of the interval (a, b] under the map.

    Branch n is linear with slope n(n+1), so the preimage within that branch
    has length (b-a)/(n(n+1)).  Summing over n <= N approaches b-a with tail
    exactly 1/(N+1) of the interval length, which is the measure-preservation
    probe used in the tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    aq, bq = _to_fraction(a), _to_fraction(b)
    if not (0 <= aq < bq <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    return (bq - aq) / (n * (n + 1))
