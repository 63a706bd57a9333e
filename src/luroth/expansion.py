"""The Luroth map, exact digit expansions, and the digit law.

Everything here is exact rational arithmetic.  Float inputs are converted to
their exact binary value first, so the digits produced are the true Luroth
digits of that dyadic rational (iterating the map in floating point instead
would shed roughly log2(digit) bits per step).
"""

from fractions import Fraction
from typing import Iterable, Tuple, Union

from .precision import _to_fraction

Real = Union[int, float, Fraction]

__all__ = [
    "digit",
    "expand",
    "luroth_step",
    "max_cdf_exact",
    "pmf",
    "preimage_length",
    "reconstruct",
    "tail",
    "weight",
]


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


def expand(x: Real, count: int) -> Tuple[Tuple[int, ...], Fraction]:
    """(digits, remainder): the first ``count`` Luroth digits of x, and the rest.

    digits[i] is the digit of the i-th iterate; remainder is the exact orbit
    point after ``count`` steps, so reconstruct(digits) + remainder *
    weight(digits) reproduces x exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    xq = _check_unit(_to_fraction(x))
    digits = []
    for _ in range(count):
        n = xq.denominator // xq.numerator
        digits.append(n)
        xq = n * ((n + 1) * xq - 1)
    return tuple(digits), xq


def reconstruct(d: Iterable[int]) -> Fraction:
    """Truncation value of a digit list: r(d1..dn) = 1/(d1+1) + r(d2..dn)/(d1(d1+1)).

    This inverts the step identity x = 1/(n+1) + L(x)/(n(n+1)); feeding the
    digits of ``expand(x, n)`` back in and adding remainder * weight(digits)
    recovers x exactly.
    """
    digits = tuple(d)
    if not digits:
        raise ValueError("digit list must be nonempty")
    if not all(isinstance(n, int) and n >= 1 for n in digits):
        raise ValueError("digits must be integers >= 1")
    acc = Fraction(0)
    for n in reversed(digits):
        acc = Fraction(1, n + 1) + acc / (n * (n + 1))
    return acc


def weight(digits: Iterable[int]) -> Fraction:
    """Product of 1/(d*(d+1)) over a digit list: the cylinder length."""
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


def max_cdf_exact(k: int, n: int) -> Fraction:
    """P(max of k IID digits <= n) = (1 - 1/(n+1))^k, as an exact rational."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(n, n + 1) ** k


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
