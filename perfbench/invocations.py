"""The CLI invocations the workloads are made of, and the checks of their output.

Each class builds one ``luroth`` argv, knows how many CSV rows it must
produce, and verifies those rows.  ``verify`` returns the number of failing
rows and a few notes saying why; a table with the wrong header or row count
fails as a whole.

The tolerances, stated once:

* Monte Carlo rows of ``rho`` and ``maxdist`` lie within ``Z_MC`` binomial
  standard errors (taken at the exact probability, plus one count) of the
  exact route: the stored parent ``rho --mode exact`` table, and
  (1 - 1/ceil(ck))^k computed here with ``fractions``.
* ``exact`` rows and ``fig1.csv`` match the stored parent table to
  ``EXACT_REL`` relative, a few units in the last place of a double, and
  their bound column is at most 2^-128.
* ``series`` rows lie within their own ``error_bound`` of the exact value.
* ``j2`` partial sums and ``fig2.csv`` match the stored parent rows to
  ``J2_REL`` relative, and every row also matches an independent float64
  evaluation of the series to ``J2_REL``.  The parent computes each term to
  about one unit in the last place, so ``J2_REL`` leaves room for
  last-digit changes of the terms and of the order of summation.
* ``c_k`` values match the stored parent values to ``C_K_REL`` relative.
* ``cf`` statistics, and the median over paths of the ``trim`` statistic at
  each checkpoint, lie within ``Z_STAT`` standard deviations of the mean of
  the stored parent runs of the same invocation on other seeds, plus one
  lattice step where the statistic is a ratio of integer digit sums.
"""

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

Z_MC = 5.0
Z_STAT = 7.0
EXACT_REL = 2.0**-50
J2_REL = 1e-12
C_K_REL = 1e-12
EXACT_BITS = 128  # the CLI's default --precision-bits

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _rel_ok(value, ref, rel) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _table(data: bytes, header):
    """Data rows of a CSV table, or None if the header is not ``header``."""
    rows = list(csv.reader(data.decode().splitlines()))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _decades(k_max):
    """The checkpoints ``luroth trim`` reports: 10, 100, ... below k_max, then k_max."""
    cps, p = [], 10
    while p < k_max:
        cps.append(p)
        p *= 10
    return cps + [k_max]


def _lattice(k):
    # (sum - max)/(k log k) of integer digits moves in steps of 1/(k log k)
    return 1.0 / (k * math.log(k))


def lambert_w(x):
    """Principal-branch Lambert W in float64 for x >= 1, by Halley iteration."""
    w = np.log(x) - 0.5 * np.log1p(np.log(x))
    for _ in range(8):
        ew = np.exp(w)
        f = w * ew - x
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def j2_sums(n_max):
    """J2 partial sums through N = 2..n_max, evaluated in float64.

    term_n = (e^{2W(n)} - e^{2W(n-1)}) / n^2 = e^{2W(n-1)} expm1(2d) / n^2,
    where d = W(n) - W(n-1) solves d + log1p(d/W(n-1)) = log1p(1/(n-1)); no
    nearly equal values are subtracted.
    """
    n = np.arange(2, n_max + 1, dtype=np.float64)
    w_prev = lambert_w(n - 1.0)
    r = np.log1p(1.0 / (n - 1.0))
    d = r * w_prev / (1.0 + w_prev)
    for _ in range(4):
        d = d - (d + np.log1p(d / w_prev) - r) / (1.0 + 1.0 / (w_prev + d))
    return np.cumsum(np.exp(2.0 * w_prev) * np.expm1(2.0 * d) / (n * n))


class Refs:
    """Tables stored from the parent commit by ``make_refs.py``."""

    def __init__(self, ref_dir=REF_DIR):
        with open(os.path.join(ref_dir, "rho_exact.csv"), "rb") as fh:
            self.rho_exact = {int(r[0]): float(r[2])
                              for r in _table(fh.read(), Rho.header)}
        with open(os.path.join(ref_dir, "fig2.csv"), "rb") as fh:
            j2 = {int(r[0]): float(r[1]) for r in _table(fh.read(), J2.header)}
        with open(os.path.join(ref_dir, "parent.json")) as fh:
            parent = json.load(fh)
        j2.update((int(n), v) for n, v in parent["j2"].items())
        self.j2 = j2
        self.c_k = {int(k): v for k, v in parent["c_k"].items()}
        self.stats = parent["stats"]

    def statistic_tolerance(self, key, sub, step):
        """(mean, allowed distance) for statistic ``sub`` of invocation ``key``."""
        ref = self.stats[key]
        sd = ref["sd"][sub]
        return ref["mean"][sub], Z_STAT * sd * math.sqrt(1.0 + 1.0 / ref["runs"]) + step


class Invocation:
    """One CLI call: its argv, its output files and the check of its rows."""

    files = (None,)  # None is stdout

    def argv(self, out_dir):
        raise NotImplementedError

    def verify(self, outputs, refs):
        raise NotImplementedError

    def label(self):
        return " ".join(self.argv("OUT"))


class Rho(Invocation):
    header = ["k", "method", "value", "error_bound"]
    _METHOD = {"exact": "exact-formula", "series": "series", "mc": "monte-carlo"}

    def __init__(self, kmax, mode, tol=None, samples=None, seed=0):
        self.kmax, self.mode, self.tol, self.samples, self.seed = kmax, mode, tol, samples, seed
        self.rows = kmax - 1

    def argv(self, out_dir):
        argv = ["rho", "--mode", self.mode, "--kmax", str(self.kmax)]
        if self.mode == "series":
            argv += ["--tol", repr(self.tol)]
        if self.mode == "mc":
            argv += ["--samples", str(self.samples), "--seed", str(self.seed)]
        return argv

    def verify(self, outputs, refs):
        return self.verify_table(outputs[None], refs)

    def verify_table(self, data, refs):
        rows = _table(data, self.header)
        if rows is None or len(rows) != self.rows:
            return self.rows, ["rho %s: bad header or row count" % self.mode]
        bad, notes = 0, []
        for i, row in enumerate(rows):
            k = i + 2
            ok = row[0] == str(k) and row[1] == self._METHOD[self.mode] and k in refs.rho_exact
            if ok:
                ok = self._row_ok(float(row[2]), float(row[3]), refs.rho_exact[k])
            if not ok:
                bad += 1
                notes.append("rho %s k=%d: %s" % (self.mode, k, ",".join(row)))
        return bad, notes

    def _row_ok(self, value, bound, exact):
        if self.mode == "exact":
            return _rel_ok(value, exact, EXACT_REL) and 0.0 <= bound <= 2.0**-EXACT_BITS
        if self.mode == "series":
            return (abs(value - exact) <= bound + EXACT_REL * exact
                    and bound <= self.tol + value * 2.0**-44)
        n = self.samples
        se = math.sqrt(exact * (1.0 - exact) / n)
        return (abs(value - exact) <= Z_MC * se + 1.0 / n
                and math.isclose(bound, math.sqrt(value * (1.0 - value) / n), rel_tol=1e-12))


class MaxDist(Invocation):
    header = ["c", "empirical", "exact_finite_k", "limit_exp"]

    def __init__(self, k, cs, samples, seed=0):
        self.k, self.cs, self.samples, self.seed = k, cs, samples, seed
        self.rows = len(cs)

    def argv(self, out_dir):
        argv = ["maxdist", "--k", str(self.k)]
        for c in self.cs:
            argv += ["--c", _fmt(c)]
        return argv + ["--samples", str(self.samples), "--seed", str(self.seed)]

    def verify(self, outputs, refs):
        rows = _table(outputs[None], self.header)
        if rows is None or len(rows) != self.rows:
            return self.rows, ["maxdist: bad header or row count"]
        bad, notes = 0, []
        n = self.samples
        for c, row in zip(self.cs, rows):
            m = math.ceil(c * self.k)
            p = float(Fraction(m - 1, m) ** self.k) if m > 1 else 0.0
            se = math.sqrt(p * (1.0 - p) / n)
            empirical, exact, limit = (float(v) for v in row[1:])
            if not (row[0] == _fmt(c) and _rel_ok(exact, p, EXACT_REL)
                    and _rel_ok(limit, math.exp(-1.0 / c), EXACT_REL)
                    and abs(empirical - p) <= Z_MC * se + 1.0 / n):
                bad += 1
                notes.append("maxdist c=%g: %s (exact %.17g)" % (c, ",".join(row), p))
        return bad, notes


class J2(Invocation):
    header = ["N", "partial_sum"]

    def __init__(self, nmax):
        self.nmax = nmax
        self.rows = nmax - 2

    def argv(self, out_dir):
        return ["j2", "--nmax", str(self.nmax)]

    def verify(self, outputs, refs):
        return self.verify_table(outputs[None], refs)

    def verify_table(self, data, refs):
        rows = _table(data, self.header)
        if rows is None or len(rows) != self.rows:
            return self.rows, ["j2: bad header or row count"]
        oracle = j2_sums(self.nmax - 1)  # row N holds the sum through N - 1
        bad, notes = 0, []
        for i, row in enumerate(rows):
            n = i + 3
            value = float(row[1])
            ok = (row[0] == str(n) and _rel_ok(value, oracle[i], J2_REL)
                  and (n not in refs.j2 or _rel_ok(value, refs.j2[n], J2_REL)))
            if not ok:
                bad += 1
                notes.append("j2 N=%d: %s (float64 %.17g)" % (n, row[1], oracle[i]))
        return bad, notes


class Figures(Invocation):
    files = ("fig1.csv", "fig2.csv")

    def __init__(self):
        self._fig1 = Rho(40, "exact")
        self._fig2 = J2(1000)
        self.rows = self._fig1.rows + self._fig2.rows

    def argv(self, out_dir):
        return ["figures", "--out", out_dir]

    def verify(self, outputs, refs):
        bad1, notes1 = self._fig1.verify_table(outputs["fig1.csv"], refs)
        bad2, notes2 = self._fig2.verify_table(outputs["fig2.csv"], refs)
        return bad1 + bad2, notes1 + notes2


class Trim(Invocation):
    header = ["seed", "k", "statistic", "c_k"]

    def __init__(self, kmax, seeds, seed=0):
        self.kmax, self.seeds = kmax, seeds
        self.first = seed * seeds  # consecutive workload seeds share no path
        self.checkpoints = _decades(kmax)
        self.rows = seeds * len(self.checkpoints)
        self.key = "trim --kmax %d --seeds %d" % (kmax, seeds)

    def argv(self, out_dir):
        return ["trim", "--kmax", str(self.kmax), "--seeds", str(self.seeds),
                "--seed", str(self.first)]

    def statistics(self, rows):
        """Median over the paths of the statistic at each checkpoint."""
        return {str(k): float(np.median([float(r[2]) for r in rows if r[1] == str(k)]))
                for k in self.checkpoints}

    def verify(self, outputs, refs):
        rows = _table(outputs[None], self.header)
        if rows is None or len(rows) != self.rows:
            return self.rows, ["trim: bad header or row count"]
        if self.key not in refs.stats:
            return self.rows, ["trim: no stored parent statistics for %r" % self.key]
        ncp = len(self.checkpoints)
        failed, notes = set(), []
        for i, row in enumerate(rows):
            k = self.checkpoints[i % ncp]
            statistic, c_k = float(row[2]), float(row[3])
            if not (row[0] == str(self.first + i // ncp) and row[1] == str(k)
                    and math.isfinite(statistic) and statistic > 0.0
                    and k in refs.c_k and _rel_ok(c_k, refs.c_k[k], C_K_REL)):
                failed.add(i)
                notes.append("trim row %d: %s" % (i, ",".join(row)))
        for j, (k, median) in enumerate(self.statistics(rows).items()):
            mean, allowed = refs.statistic_tolerance(self.key, k, _lattice(int(k)))
            if abs(median - mean) > allowed:
                failed.update(range(j, self.rows, ncp))
                notes.append("trim k=%s: median %.6g, parent %.6g +- %.3g"
                             % (k, median, mean, allowed))
        return len(failed), notes


class Cf(Invocation):
    def __init__(self, ks, statistic, samples, seed=0):
        self.ks, self.statistic, self.samples, self.seed = ks, statistic, samples, seed
        self.rows = len(ks)
        self.header = (["k", "rho_hat", "se"] if statistic == "rho"
                       else ["k", "median", "se", "dist_log2", "dist_inv_log2"])
        self.key = " ".join(self.argv(None)[:-2])

    def argv(self, out_dir):
        argv = ["cf"]
        for k in self.ks:
            argv += ["--k", str(k)]
        return argv + ["--statistic", self.statistic, "--samples", str(self.samples),
                       "--seed", str(self.seed)]

    def statistics(self, rows):
        return {row[0]: float(row[1]) for row in rows}

    def verify(self, outputs, refs):
        rows = _table(outputs[None], self.header)
        if rows is None or len(rows) != self.rows:
            return self.rows, ["cf %s: bad header or row count" % self.statistic]
        if self.key not in refs.stats:
            return self.rows, ["cf: no stored parent statistics for %r" % self.key]
        bad, notes = 0, []
        for k, row in zip(self.ks, rows):
            value, se = float(row[1]), float(row[2])
            if self.statistic == "rho":
                step = 1.0 / self.samples
                ok = 0.0 < value < 1.0 and _rel_ok(
                    se, math.sqrt(value * (1.0 - value) / self.samples), 1e-5)
            else:
                step = _lattice(k)
                ok = (se > 0.0 and _rel_ok(float(row[3]), abs(value - math.log(2.0)), 1e-12)
                      and _rel_ok(float(row[4]), abs(value - 1.0 / math.log(2.0)), 1e-12))
            mean, allowed = refs.statistic_tolerance(self.key, str(k), step)
            if not (row[0] == str(k) and ok and abs(value - mean) <= allowed):
                bad += 1
                notes.append("cf %s k=%d: %s, parent %.6g +- %.3g"
                             % (self.statistic, k, ",".join(row), mean, allowed))
        return bad, notes
