"""Deterministic ingredients of the trimmed-sum convergence analysis.

A(x) = x*log(x) and its inverse B(x) = x/W(x) (Lambert W), the partial sums
of the convergence-criterion series

    J2(N) = sum_{n=2}^{N} (1/n^2) * (B(n)^2 - B(n-1)^2),

and the centering constants c_k = (k/A(k)) * E(X | X < A(k)) for the Luroth
digit law, whose conditional mean is a harmonic partial sum.

B(n)^2 - B(n-1)^2 is a difference of nearly equal values.  The series avoids
forming it: since W(n) e^W(n) = n, B(n) = e^W(n), and the increment
d = W(n) - W(n-1) solves the well-conditioned equation
d + log1p(d/W(n-1)) = log1p(1/(n-1)) (Corless, Gonnet, Hare, Jeffrey, Knuth,
"On the Lambert W function", Adv. Comput. Math. 5, 1996), so each term is
e^(2 W(n-1)) * expm1(2d) / n^2.  All of this is float64 and uncertified; the
certified kernel is ``lambert_w0``.
"""

import math
from typing import Tuple

import numpy as np

from .precision import _lambert_w_float

__all__ = [
    "EULER_GAMMA",
    "a_of",
    "c_k",
    "harmonic",
    "j2_partial_sums",
]

EULER_GAMMA = 0.5772156649015328606


def a_of(x: float) -> float:
    """A(x) = x*log(x) for x > 1 (natural log)."""
    if not x > 1:
        raise ValueError("a_of requires x > 1")
    return x * math.log(x)


def harmonic(n: int) -> float:
    """H_n to about an ulp: below n = 1000 the exactly rounded sum of the
    rounded 1/i, from there the Euler-Maclaurin expansion, whose remainder
    has the sign and at most the size of -1/(252 n^6), < 2^-60 H_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < 1000:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    return math.fsum([math.log(n), EULER_GAMMA, 1.0 / (2 * n),
                      -1.0 / (12 * n * n), 1.0 / (120 * n**4)])


def c_k(k: int) -> float:
    """Centering constant (k/A(k)) * E(X | X < A(k)) for the digit law.

    E(X * 1{X < A}) = H_C - 1 with C = ceil(A(k)) (strict cutoff on
    integers: n <= C - 1), and P(X < A) = 1 - 1/C.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    a = a_of(float(k))
    c = math.ceil(a)
    conditional = (harmonic(c) - 1.0) / (1.0 - 1.0 / c)
    return (k / a) * conditional


def j2_partial_sums(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Partial sums and terms of the series for N = 2..n_max.

    Returns (values, terms), both of length n_max - 1, where values[i] is
    the partial sum through N = i + 2.  Each term is e^(2w) * expm1(2d) / n^2
    with w = W(n-1) and d = W(n) - W(n-1) from 4 Newton steps on
    d + log1p(d/w) = log1p(1/(n-1)), started at its linearisation; no nearly
    equal values are subtracted, so every term keeps float64 relative
    accuracy (a few ulps, growing like 2w ulps through e^(2w)).  Float64,
    not certified.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    n = np.arange(2, n_max + 1, dtype=np.float64)
    w = _lambert_w_float(n - 1.0)
    r = np.log1p(1.0 / (n - 1.0))
    d = r * w / (1.0 + w)
    for _ in range(4):
        d -= (d + np.log1p(d / w) - r) / (1.0 + 1.0 / (w + d))
    terms = np.exp(2.0 * w) * np.expm1(2.0 * d) / (n * n)
    return np.cumsum(terms), terms
