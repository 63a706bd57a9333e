"""Release acceptance checks.

One test per numbered criterion.  Every test prints a single verdict line
`[criterion NN] PASS/FAIL - detail` before asserting, and enforces its
runtime budget.  Tolerances are the released contract, not tuned to the
implementation; reference values come from independent oracles (mpmath for
zeta and the W residual, the limit law of the trimmed sum for criterion 07,
closed forms elsewhere), never from the code under test.  The trimmed-sum
oracle has its own check against an independent simulation.
"""

import csv
import functools
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import chdtrc, sici

from luroth.cli import main as cli_main
from luroth.contfrac import mc_cf_rho_table
from luroth.expansion import max_cdf_exact
from luroth.extrema import (
    q_k,
    q_k_via_partial_fraction,
    rho_exact,
    rho_series,
    rho_sum_over_k,
)
from luroth.precision import lambert_w0
from luroth.simulation import _ordered_map, mc_max_scaled_cdf, mc_rho, mc_trimmed_trajectory
from luroth.trimming import c_k, j2_partial_sums


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_partial_fraction_identity():
    t0 = time.perf_counter()
    mismatches = [
        (m, k)
        for m in range(1, 41)
        for k in range(1, 26)
        if q_k_via_partial_fraction(m, k) != q_k(m, k)
    ]
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 10.0
    _verdict(1, ok, f"40x25 exact identities, {len(mismatches)} mismatches, {dt:.2f}s")
    assert mismatches == []
    assert dt < 10.0


def test_criterion_02_base_values():
    t0 = time.perf_counter()
    one = rho_exact(1)
    r2 = rho_exact(2, 128)
    with mpmath.workprec(320):
        oracle = 4 - 2 * mpmath.zeta(2)
        got = mpmath.mpf(r2.value.numerator) / r2.value.denominator
        diff = abs(got - oracle)
        within = diff <= mpmath.mpf(2) ** -100
        diff_txt = mpmath.nstr(diff, 3)
    dt = time.perf_counter() - t0
    exact_one = one.value == 1 and one.error_bound == 0
    ok = exact_one and within and dt < 1.0
    _verdict(2, ok, f"rho(1) exact={exact_one}, |rho(2)-(4-2*zeta(2))|={diff_txt}, {dt:.2f}s")
    assert exact_one
    assert within
    assert dt < 1.0


def test_criterion_03_cross_oracle_agreement():
    t0 = time.perf_counter()
    tol = 1e-6 + 2.0**-64
    worst = 0.0
    for k in (1, 2, 3, 5, 10, 20, 40):
        exact = float(rho_exact(k).value)
        series = float(rho_series(k, 1e-6).value)
        worst = max(worst, abs(exact - series))
    dt = time.perf_counter() - t0
    ok = worst <= tol and dt < 300.0
    _verdict(3, ok, f"max |exact-series| = {worst:.3g} (tol {tol:.3g}), {dt:.1f}s")
    assert worst <= tol
    assert dt < 300.0


def test_criterion_04_approach_to_one():
    t0 = time.perf_counter()
    gap2 = 1.0 - float(rho_exact(2).value)
    gap40 = 1.0 - float(rho_exact(40).value)
    dt = time.perf_counter() - t0
    ok = gap40 < gap2 and gap40 < 0.1 and dt < 10.0
    _verdict(4, ok, f"1-rho: k=2 {gap2:.4f} -> k=40 {gap40:.4f} (< 0.1), {dt:.2f}s")
    assert gap40 < gap2
    assert gap40 < 0.1
    assert dt < 10.0


def test_criterion_05_sum_over_k_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3, 5, 10):
        got = rho_sum_over_k(m, 400)
        worst = max(worst, abs(float(got - Fraction(m, m + 1))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    _verdict(5, ok, f"max |sum_k - m/(m+1)| = {worst:.3g} (tol 1e-12), {dt:.2f}s")
    assert worst <= 1e-12
    assert dt < 1.0


def test_criterion_06_monte_carlo_consistency():
    t0 = time.perf_counter()
    worst_dev = 0.0
    table = mc_rho(40, 10**6, seed=0)
    for k in (2, 10, 40):
        r = table[k - 1]
        target = float(rho_exact(k).value)
        worst_dev = max(worst_dev, abs(r.estimate - target) / r.standard_error)
    [m] = mc_max_scaled_cdf(1000, [1.0], 10**6, seed=0)
    # the estimate counts max < c*k, that is max <= 999
    max_target = float(max_cdf_exact(1000, 999))
    max_dev = abs(m.estimate - max_target) / m.standard_error
    dt = time.perf_counter() - t0
    ok = worst_dev <= 4.0 and max_dev <= 4.0 and dt < 120.0
    _verdict(6, ok, f"rho dev <= {worst_dev:.2f} SE, maxdist dev {max_dev:.2f} SE (gate 4), {dt:.1f}s")
    assert worst_dev <= 4.0
    assert max_dev <= 4.0
    assert dt < 120.0


@functools.lru_cache(maxsize=None)
def _trimmed_limit_law():
    """Median mu of Y' = log m + Z_m and the density of Y' at mu.

    Y' is the limit in law of (S_k - M_k)/k - (H_{k+1} - 1) for i.i.d. digits
    with P(X >= n) = 1/n.  The points X_i/k tend to a Poisson process with
    intensity x^-2 dx, the scaled maximum is m = 1/V with V ~ Exp(1), and
    E[X 1{X <= k}] = H_{k+1} - 1 exactly.  Given m, the compensated sum Z_m of
    the points below m has characteristic function exp(psi(mt)/m), with
    psi(s) = 1 - cos s - s Si(s) + i (s - sin s + s (Ci(s) - gamma - log s)).
    The characteristic function of Y' is averaged over V = e^u (trapezoid in
    u) and inverted by Gil-Pelaez (Gauss-Legendre in t on [0, 40]; it decays
    like e^-t).
    """
    t, wt = np.polynomial.legendre.leggauss(200)
    t, wt = 20.0 * (t + 1.0), 20.0 * wt
    du = 0.05
    u = np.arange(-30.0, 4.0, du)
    v = np.exp(u)[:, None]
    s = t / v
    si, ci = sici(s)
    psi = (1.0 - np.cos(s) - s * si
           + 1j * (s - np.sin(s) + s * (ci - np.euler_gamma - np.log(s))))
    phi = (du * np.exp(u - np.exp(u))) @ np.exp(v * psi - 1j * t * np.log(v))
    # Gil-Pelaez: F(y) = 1/2 - (1/pi) int_0^inf Im[e^-ity phi(t)]/t dt, so the
    # median is the zero of the integral, found by bisection on [-1, 1].
    def integral(y):
        return wt @ ((np.exp(-1j * t * y) * phi).imag / t)

    lo, hi = -1.0, 1.0
    sign_lo = integral(lo) > 0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if (integral(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    mu = (lo + hi) / 2
    density = wt @ (np.exp(-1j * t * mu) * phi).real / math.pi
    return mu, float(density)


def _trimmed_oracle(k: int, paths: int):
    """Limit-law median of (S_k - M_k)/(k log k), and the standard error of
    a median over `paths` independent paths, 1/(2 f sqrt(paths)) with f the
    density of the statistic at its median."""
    mu, density = _trimmed_limit_law()
    log_k = math.log(k)
    median = (float(mpmath.harmonic(k + 1)) - 1.0 + mu) / log_k
    return median, 1.0 / (2.0 * density * log_k * math.sqrt(paths))


def test_criterion_07_trimmed_sum_centering():
    # Only the largest term is trimmed, so the sum that is left is truncated
    # near k, not near the k log k level of the normalizer c_k: the median of
    # (S_k - M_k)/(k log k) is (H_{k+1} - 1 + mu)/log k (see _trimmed_limit_law),
    # 0.943 at k = 1e3 and 0.972 at k = 1e6, below c_k (1.159 at 1e6).  It
    # approaches the almost-sure limit 1 from below.  Forgetting to subtract
    # M_k puts the median near 1.14, which the 0.1 gate at k = 1e6 rejects.
    target3, se3 = _trimmed_oracle(10**3, 32)
    target6, se6 = _trimmed_oracle(10**6, 32)
    t0 = time.perf_counter()
    checkpoints = [10**3, 10**6]
    at3, at6 = [], []
    for seed in range(32):
        traj = dict(mc_trimmed_trajectory(checkpoints, seed=seed))
        at3.append(traj[10**3])
        at6.append(traj[10**6])
    dt = time.perf_counter() - t0
    med3 = float(np.median(at3))
    med6 = float(np.median(at6))
    gap = abs(med6 - target6)
    dev3 = abs(med3 - target3) / se3
    closer = abs(target6 - 1.0) < abs(target3 - 1.0)
    ok = gap <= 0.1 and dev3 <= 4.0 and closer and dt < 180.0
    _verdict(
        7, ok,
        f"median(1e6)={med6:.4f} vs oracle {target6:.4f}+-{se6:.4f} "
        f"(gap {gap:.4f}, allowed 0.1); median(1e3)={med3:.4f} vs oracle "
        f"{target3:.4f}+-{se3:.4f} ({dev3:.2f} SE, gate 4); oracle closer-to-1="
        f"{closer}; c_k(1e6)={c_k(10**6):.4f} (normalizer, reference only); {dt:.1f}s",
    )
    assert gap <= 0.1
    assert dev3 <= 4.0
    assert closer
    assert dt < 180.0


def test_trimmed_limit_oracle_against_independent_simulation():
    # Criterion 07's reference median, checked against numpy's generator and
    # X = floor(1/U), U uniform on (0, 1]; no luroth code is involved.
    t0 = time.perf_counter()
    k, paths, rows = 10**4, 4000, 250
    rng = np.random.default_rng(0)
    stats = []
    for _ in range(paths // rows):
        x = np.floor(1.0 / (1.0 - rng.random((rows, k))))
        stats.append((x.sum(axis=1) - x.max(axis=1)) / (k * math.log(k)))
    med = float(np.median(np.concatenate(stats)))
    target, se = _trimmed_oracle(k, paths)
    dt = time.perf_counter() - t0
    print(f"[oracle 07] median(1e4)={med:.4f} vs {target:.4f}+-{se:.4f}, {dt:.2f}s")
    assert abs(med - target) <= 4.0 * se
    assert dt < 2.0


def _trimmed_exact_cdf(k: int, y_max: int, exact: bool = False) -> np.ndarray:
    """P(S_k - M_k <= y) for y = 0..y_max: the exact law at finite k.

    With G_m(z) = P(X_1..X_k <= m, S_k <= z), {M_k = m} is {all <= m} less
    {all <= m - 1}; and a maximum m > y leaves k - 1 digits summing to at
    most y < m, so it is attained once, and P(X > y) = 1/(y + 1).  So

        P(S_k - M_k <= y) = sum_{m=1}^{y} [G_m(y + m) - G_{m-1}(y + m)]
                            + k P(S_{k-1} <= y)/(y + 1).

    Each difference is formed without cancellation, by the number j >= 1 of
    digits equal to m: it is sum_j C(k, j) p_m^j H_{m-1}^{k-j}(y - (j-1) m),
    with p_m = 1/(m(m+1)) and H_m^n(s) = P(S_n <= s, all n digits <= m).
    The table h[n, s] = P(S_n = s, all n digits <= m), for n < k and
    s <= y_max, goes from level m - 1 to m the same way: h_m^n(s) =
    sum_{j>=0} C(n, j) p_m^j h_{m-1}^{n-j}(s - j m).  After level y_max it
    no longer moves on s <= y_max, and h[k - 1] is the law of S_{k-1} there.

    ``exact=True`` runs the same steps in Fractions.  In floats every value
    is a sum of products of nonnegative numbers, so its relative error is at
    most N 2^-53/(1 - N 2^-53), N the roundings along its longest chain
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).
    Level m has J_m <= y_max/m + 1 terms, and a chain takes at most 2 J_m + 4
    roundings there for h (the power p^j, the coefficient, the two products,
    the sums) and J_m more for the sums into the result; the two prefix sums
    take y_max each.  Summed, N <= y_max (3 ln y_max + 12) + 4: below 3e-12
    relative at y_max = 700, far below any sampled gate.
    """
    dtype = object if exact else float
    one = Fraction(1) if exact else 1.0
    comb = np.array([[math.comb(n, j) for j in range(k + 1)] for n in range(k + 1)], dtype=dtype)
    h = np.zeros((k, y_max + 1), dtype=dtype)
    h[0, 0] = one
    cdf = np.zeros(y_max + 1, dtype=dtype)
    for m in range(1, y_max + 1):
        p = one / (m * (m + 1))
        below = np.cumsum(h, axis=1)
        old = h.copy()
        pj = one
        for j in range(1, min(k, y_max // m + 1) + 1):
            pj = pj * p
            lo = max(1, j - 1) * m  # the least y >= m with y - (j - 1) m >= 0
            cdf[lo:] += comb[k, j] * pj * below[k - j, lo - (j - 1) * m:y_max + 1 - (j - 1) * m]
            if j * m <= y_max:
                h[j:, j * m:] += (comb[j:k, j] * pj)[:, None] * old[:k - j, :y_max + 1 - j * m]
    cdf += one * k * np.cumsum(h[k - 1]) / np.arange(1, y_max + 2)
    return cdf


def test_trimmed_exact_law_oracle():
    # k = 2: S_2 - M_2 = min(X_1, X_2), so P(<= y) = 1 - 1/(y + 1)^2; k = 10:
    # the float table within its rounding bound of the Fraction one
    assert list(_trimmed_exact_cdf(2, 30, exact=True)) == [1 - Fraction(1, (y + 1) ** 2)
                                                           for y in range(31)]
    y_max = 45
    exact = _trimmed_exact_cdf(10, y_max, exact=True)
    approx = _trimmed_exact_cdf(10, y_max)
    bound = 2 * (y_max * (3 * math.log(y_max) + 12) + 4) * 2.0**-53
    assert exact[-1] > Fraction(9, 10)
    assert all(abs(Fraction(a) - e) <= bound * e for a, e in zip(approx, exact))


def test_trimmed_paths_against_exact_law():
    # mc_trimmed_trajectory at k = 10 and 100, 4000 paths, against the exact
    # law, on its lattice: the statistic times k log k, rounded, is the
    # integer S_k - M_k.  A chi-square test in 10 bins cut at the exact
    # deciles, gate significance 1e-4 at these fixed seeds.  The verdict
    # gives the limit law's error at each k.
    t0 = time.perf_counter()
    paths = [dict(mc_trimmed_trajectory([10, 100], seed=s)) for s in range(4000)]
    notes, worst = [], 1.0
    for k, y_max in ((10, 45), (100, 700)):
        scale = k * math.log(k)
        y = np.rint([path[k] * scale for path in paths])
        cdf = _trimmed_exact_cdf(k, y_max)
        edges = np.unique(np.searchsorted(cdf, np.linspace(0.1, 0.9, 9)))  # least y, F(y) >= q
        probs = np.diff(np.concatenate([[0.0], cdf[edges], [1.0]]))
        counts = np.bincount(np.searchsorted(edges, y, side="left"), minlength=len(edges) + 1)
        expected = probs * len(y)
        p = chdtrc(counts.size - 1, np.sum((counts - expected) ** 2 / expected))
        median = np.searchsorted(cdf, 0.5) / scale
        limit = _trimmed_oracle(k, 1)[0]
        notes.append(f"k={k}: chi2 p={p:.3g}, exact median {median:.4f}, limit law "
                     f"{limit:.4f} (error {limit - median:+.4f})")
        worst = min(worst, p)
    dt = time.perf_counter() - t0
    print(f"[oracle 07] exact law: {'; '.join(notes)}; {dt:.2f}s")
    assert worst > 1e-4
    assert dt < 10.0


def test_trimmed_paths_at_1e9_against_limit_law():
    # criterion 07's oracle far past its k: the median of 200 paths at
    # k = 10^9, within 4 SE.  The limit law's own error at finite k fell from
    # 0.065 at k = 10 to 0.006 at k = 100 (the exact-law test above).
    t0 = time.perf_counter()
    k, paths = 10**9, 200
    stats = _ordered_map(lambda s: mc_trimmed_trajectory([k], seed=s)[0][1], range(paths))
    med = float(np.median(stats))
    target, se = _trimmed_oracle(k, paths)
    dev = abs(med - target) / se
    dt = time.perf_counter() - t0
    print(f"[oracle 07] median(1e9)={med:.5f} vs {target:.5f}+-{se:.5f} "
          f"({dev:.2f} SE, gate 4), {dt:.2f}s")
    assert dev <= 4.0
    assert dt < 10.0


def test_criterion_08_w_ratio_series_ingredients():
    t0 = time.perf_counter()
    sums, terms = j2_partial_sums(10**6)
    monotone = bool(np.all(terms >= 0.0))
    v6 = float(sums[-1])
    v5 = float(sums[10**5 - 2])
    worst_resid = 0.0
    with mpmath.workprec(300):
        for x in np.logspace(-3.0, 9.0, 50):
            xf = Fraction(float(x))
            w = lambert_w0(xf, 64)
            wv = mpmath.mpf(w.value.numerator) / w.value.denominator
            xv = mpmath.mpf(xf.numerator) / xf.denominator
            resid = abs(wv * mpmath.exp(wv) - xv)
            worst_resid = max(worst_resid, float(resid / max(1.0, float(x))))
    dt = time.perf_counter() - t0
    ok = (monotone and v6 < 4.0 and (v6 - v5) < 0.2
          and worst_resid <= 2.0**-52 and dt < 60.0)
    _verdict(
        8, ok,
        f"monotone={monotone}, value(1e6)={v6:.4f} (<4), step={v6 - v5:.4f} (<0.2), "
        f"W resid <= {worst_resid:.3g} (tol 2^-52), {dt:.1f}s",
    )
    assert monotone
    assert v6 < 4.0
    assert (v6 - v5) < 0.2
    assert worst_resid <= 2.0**-52
    assert dt < 60.0


def test_criterion_09_figure_tables(tmp_path: Path):
    t0 = time.perf_counter()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cli_main(["figures", "--out", str(dir_a)]) == 0
    assert cli_main(["figures", "--out", str(dir_b)]) == 0
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("fig1.csv", "fig2.csv")
    )
    fig1 = list(csv.reader((dir_a / "fig1.csv").read_text().splitlines()))[1:]
    fig2 = list(csv.reader((dir_a / "fig2.csv").read_text().splitlines()))[1:]
    v1 = [float(r[2]) for r in fig1]
    v2 = [float(r[1]) for r in fig2]
    fig1_ok = (len(fig1) == 39 and all(0.70 < v < 1.0 for v in v1)
               and all(b >= a - 1e-9 for a, b in zip(v1, v1[1:])))
    fig2_ok = (len(fig2) == 998 and all(b > a for a, b in zip(v2, v2[1:]))
               and abs(v2[0] - 0.598) <= 1e-3)
    dt = time.perf_counter() - t0
    ok = identical and fig1_ok and fig2_ok and dt < 30.0
    _verdict(
        9, ok,
        f"byte-identical={identical}, fig1 rows={len(fig1)} ok={fig1_ok}, "
        f"fig2 rows={len(fig2)} first={v2[0]:.4f} ok={fig2_ok}, {dt:.1f}s",
    )
    assert identical
    assert fig1_ok
    assert fig2_ok
    assert dt < 30.0


def test_criterion_10_cf_uniqueness_trend():
    t0 = time.perf_counter()
    shallow, deep = mc_cf_rho_table([2, 32], 10**5, seed=0)
    gap = deep.estimate - shallow.estimate
    need = 3.0 * (deep.standard_error + shallow.standard_error)
    dt = time.perf_counter() - t0
    ok = gap > need and dt < 120.0
    _verdict(
        10, ok,
        f"rho_hat(32)={deep.estimate:.4f}+-{deep.standard_error:.4f} vs "
        f"rho_hat(2)={shallow.estimate:.4f}+-{shallow.standard_error:.4f}, "
        f"gap {gap:.4f} > {need:.4f}, {dt:.1f}s",
    )
    assert gap > need
    assert dt < 120.0
