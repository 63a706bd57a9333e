"""Uniqueness-of-maximum probabilities for Luroth digits.

rho_k is the probability that the maximum of k IID Luroth digits is attained
by exactly one index.  The per-level contribution at maximum value m has the
closed form k*(m-1)^(k-1)/(m^k*(m+1)); summing over m, with the tail
bracketed by two integrals of closed form, gives a series route, and a
partial-fraction expansion of the level terms turns the sum into a
finite combination of integer zeta values, which is the exact route.

The exact route is numerically delicate: the bracket it evaluates is ~1/k
while its individual terms are ~2^(k-1), so about k bits cancel.  The zeta
values arrive as fixed-point integers at one binary scale with a certified
ulp count each; the accumulation is exact integer arithmetic on those
numerators and ulp counts, so the only error in the result is the explicitly
tracked one.
"""

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .precision import (
    HighPrecisionReal,
    PrecisionError,
    _row_sums,
    _zeta_row,
    bernoulli_triangle,
)

__all__ = [
    "coeff_c",
    "q_k",
    "q_k_via_partial_fraction",
    "rho_exact",
    "rho_series",
    "rho_sum_over_k",
]


def _probability(value: Fraction, bound: Fraction) -> HighPrecisionReal:
    """rho_k as a certified real, rejected if outside (0, 1] by more than its bound."""
    if not 0 < value <= 1 + bound:
        raise PrecisionError("rho estimate outside (0, 1] by more than its bound")
    return HighPrecisionReal(value, bound)


def coeff_c(j: int, k: int) -> int:
    """Expansion coefficient: (-1)^(j+1) * T(k-1, k-j) for j <= k, 0 at j = k+1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if j < 1 or j > k + 1:
        raise ValueError("j must lie in [1, k+1]")
    return 0 if j == k + 1 else (-1) ** (j + 1) * bernoulli_triangle(k - 1, k - j)


def q_k(m: int, k: int) -> Fraction:
    """Level term (m-1)^(k-1) / (m^k (m+1)), exact; zero at m = 1 for k >= 2."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return Fraction((m - 1) ** (k - 1), m**k * (m + 1))


def q_k_via_partial_fraction(m: int, k: int) -> Fraction:
    """Same level term evaluated through the partial-fraction expansion."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return Fraction(2 ** (k - 1), m * (m + 1)) + sum(
        Fraction(coeff_c(j, k), m**j) for j in range(2, k + 1))


def rho_sum_over_k(m: int, k_top: int) -> Fraction:
    """Sum of k q_k(m, k) over k = 1..k_top; converges to m/(m+1) geometrically.

    Not a probability (the events overlap across k); the limit identity
    p_m / tau_m^2 = m/(m+1) is what the tests pin down.  The sum is the exact
    rational m/(m+1) (1 - (K+1) r^K + K r^(K+1)) with r = (m-1)/m, K = k_top.
    """
    if m < 1 or k_top < 1:
        raise ValueError("need m >= 1 and k_top >= 1")
    r = Fraction(m - 1, m)
    return Fraction(m, m + 1) * (1 - (k_top + 1) * r**k_top + k_top * r ** (k_top + 1))


def rho_exact(k: int, target: int = 128) -> HighPrecisionReal:
    """rho_k through the zeta-value formula, certified to 2**-target.

    Works at target + k + 64 bits internally so that the ~k bits destroyed
    by cancellation still leave the requested accuracy; the returned bound
    is propagated from the certified zeta bounds, not assumed.  The value is
    rounded half to even onto the grid 2**-(target+16), and the bound counts
    that rounding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if target < 8:
        raise ValueError("target must be >= 8 bits")
    if k == 1:
        return HighPrecisionReal(Fraction(1), Fraction(0))
    # zeta(j), j <= k, at target + k + 64 bits share the row's scale 2**-s, so
    # the sum is exact on integer numerators: with |z_j - zeta(j)| <= u_j 2**-s,
    # the integer sum of T(k-1, k-j) u_j bounds the bracket's error in ulps.
    # z_j pairs with t[k-j], and the sign (-1)**(j+1) alternates along the pairs.
    nums, ulps, s = _zeta_row(target + k + 64, k)
    z = nums[k - 2::-1]
    t = list(_row_sums(k - 1))
    acc = sum(map(mul, z[::2], t[::2])) - sum(map(mul, z[1::2], t[1::2]))
    acc = (acc if k & 1 else -acc) + (1 << (k - 1 + s))
    errsum = sum(map(mul, ulps[k - 2::-1], t))
    # rho_k is k acc ulps of 2**-s; rounding it half to even onto the grid
    # 2**-(target+16), of 2**sh ulps, adds at most 2**(sh-1) ulps to the bound
    sh = s - target - 16
    q, r = divmod(k * acc, 1 << sh)
    if 2 * r > 1 << sh or (2 * r == 1 << sh and q & 1):
        q += 1
    err = k * errsum + (1 << (sh - 1))
    if err > 1 << (s - target):
        raise PrecisionError("rho_exact could not certify 2^-%d at k=%d" % (target, k))
    return _probability(Fraction(q, 1 << (target + 16)), Fraction(err, 1 << s))


def rho_series(k: int, tol: float = 1e-6) -> HighPrecisionReal:
    """rho_k = k * sum_m f(m), f(x) = (1 - 1/x)^(k-1)/(x(x+1)), with f(1..M)
    summed directly and the rest taken as the midpoint of a bracket whose
    half-width is at most tol.  No zeta values enter, so the route stays
    independent of ``rho_exact``.  tol < 2^-52 is rejected: there float
    resolution, not truncation, sets the bound.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tol >= 2.0**-52:
        raise ValueError("tol must be >= 2^-52")
    # Convexity.  With g = log f, f'' = f (g'' + g'^2).  For x >= 2k,
    # (k-1)/(x-1) < 1/2, so -g' = 1/x + 1/(x+1) - (k-1)/(x(x-1)) > 1/(2x) +
    # 1/(x+1) > 0, g'' > 1/(x+1)^2 - 1/(2x^2 (x-1)) and g'^2 > 1/(x(x+1)) >=
    # 1/(2x^2 (x-1)): f falls and f'' > 0 on [2k, inf).
    # Bracket.  With I(a) the integral of f over [a, inf) and M >= 2k, the
    # midpoint and trapezoid inequalities of convex f give
    #     I(M+1) + f(M+1)/2 <= sum_{m>M} f(m) <= I(M+1/2).
    # Width.  It is the integral of f over [M+1/2, M+1] less f(M+1)/2, which
    # the chord bounds by (f(M+1/2) - f(M+1))/4 <= -f'(M+1/2)/8; as -f'(x) <=
    # f(x) (2x+1)/(x(x+1)) < 2/x^3, the half-width for rho is below
    # k/(8 (M+1/2)^3) <= tol once M >= (k/(8 tol))^(1/3).
    # I(a).  v = 1/x, t = 1 - v turn it into the integral of t^(k-1)/(2 - t)
    # over [1 - 1/a, 1]; 1/(2 - t) = sum_i t^i/2^(i+1) makes the summands
    # 2^-(i+1) (1 - (1 - 1/a)^(k+i))/(k+i), falling in i, and those from
    # i = 60 on add less than 2^-59 I(a).
    m_top = max(2 * k, math.ceil((k / (8.0 * tol)) ** (1.0 / 3.0)))
    n = k + np.arange(60.0)

    def tail(a):
        return math.fsum(-np.expm1(n * math.log1p(-1.0 / a)) / (n * 2.0 ** (n - k + 1)))

    m = np.arange(1.0, m_top + 2)
    f = ((m - 1.0) / m) ** (k - 1) / m / (m + 1.0)
    upper, lower = tail(m_top + 0.5), tail(m_top + 1.0) + f[-1] / 2.0
    value = k * (math.fsum(f[:-1]) + (upper + lower) / 2.0)
    # Rounding, u = 2^-53, libm good to 4 ulps.  f(m) is within (k+9)u, the
    # power taking (m-1)/m's rounding k-1 times; a tail summand within 20u,
    # log1p's condition being <= 1.31 here and expm1's <= 1.  With the fsums,
    # midpoint, sum and product, value is within (k+25)u, all terms being
    # positive, and the half-width within (k/2+28)u value: (3k/2+53)u in all.
    bound = Fraction(k * (upper - lower) / 2.0) + Fraction(value) * (k + 64) / 2**52
    return _probability(Fraction(value), bound)
