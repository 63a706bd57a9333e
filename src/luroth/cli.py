"""Command-line surface: every computation as a subcommand emitting CSV.

Conventions shared by all subcommands:

* every CSV starts with a header row and uses "\n" line endings; no field
  holds a comma, a quote or a line break, so none is quoted;
* a table is written in one write, only once all its rows are computed and
  formatted, so no failure leaves a partial table;
* each table has one row format, applied with one ``%`` operation per row:
  floating values as ``%.17g`` (17 significant digits, round-trippable),
  integers as ``%d``, labels and exact rationals ("p/q") as ``%s``;
* the same invocation with the same seed produces byte-identical output;
* exit status 0 means every computation certified its error bound (or, for
  Monte Carlo, completed within its sampling contract), 1 a runtime failure
  (never a ValueError), 2 an argument outside a domain the CLI or library states.
"""

import argparse
import gc
import math
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .contfrac import mc_cf_rho_table, mc_cf_trimmed_table
from .expansion import expand, reconstruct
from .extrema import rho_exact, rho_series
from .precision import PrecisionError
from .simulation import _ordered_map, mc_max_scaled_cdf, mc_rho, mc_trimmed_trajectory
from .trimming import c_k, j2_partial_sums

__all__ = ["main"]


# (header, row format) of the two tables `figures` writes as well
_RHO_TABLE = ("k,method,value,error_bound", "%d,%s,%.17g,%.17g")
_J2_TABLE = ("N,partial_sum", "%d,%.17g")


def _write_csv(path: Optional[str], header: str, fmt: str,
               rows: Iterable[tuple]) -> int:
    """Format one table whole, then write it to path or to stdout at once.

    Each row is a tuple of plain values, formatted as ``fmt % row``; callers
    compute the values first, and may pass them as an iterator, such as
    ``enumerate`` of a list, so that no long table is held as tuples.
    """
    text = header + "\n" + "".join(map((fmt + "\n").__mod__, rows))
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        fh.write(text)
    return 0


def _require(cond: bool, message: str):
    # for domains no library call states: main exits 2 on any ValueError
    if not cond:
        raise ValueError(message)


def _rho_rows(k_max: int, mode: str, precision_bits: int, tol: float,
              samples: int, seed: int) -> List[tuple]:
    methods = ["exact", "series", "mc"] if mode == "all" else [mode]
    sampled = mc_rho(k_max, samples, seed=seed) if "mc" in methods else []
    rows = []
    for k in range(2, k_max + 1):
        for method in methods:
            if method == "mc":
                r = sampled[k - 1]
                # for sampled rows the bound column carries the standard
                # error, a statistical scale rather than a certified bound
                rows.append((k, "monte-carlo", r.estimate, r.standard_error))
            else:
                exact = method == "exact"
                est = rho_exact(k, precision_bits) if exact else rho_series(k, tol)
                rows.append((k, "exact-formula" if exact else "series", est.value,
                             est.error_bound))
    return rows


def cmd_rho(args) -> int:
    # rows start at k = 2, and each flag is checked whatever --mode calls
    _require(args.kmax >= 2, "--kmax must be >= 2")
    _require(args.precision_bits >= 8, "--precision-bits must be >= 8")
    # a bound of 1 says nothing about a probability; below 2^-52 rounding rules
    _require(2.0**-52 <= args.tol < 1.0, "--tol must lie in [2^-52, 1)")
    _require(args.samples >= 100, "--samples must be >= 100")
    rows = _rho_rows(args.kmax, args.mode, args.precision_bits, args.tol,
                     args.samples, args.seed)
    return _write_csv(args.out, *_RHO_TABLE, rows)


def cmd_expand(args) -> int:
    # Fraction builds 10^|e| for an exponent e; past twice the int-to-str limit
    # the value is 0, above 1 or has a first digit too long to print
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        exp = re.search(r"e([-+]?[0-9_]+)\s*$", args.value, re.IGNORECASE)
        if limit and exp and abs(int(exp.group(1))) > 2 * limit:
            raise ValueError("exponent beyond +-%d, twice the int-to-str limit" % (2 * limit))
        x = Fraction(args.value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {args.value!r} as a rational: {exc}")
    digits, remainder = expand(x, args.count)
    rows = list(enumerate(digits, start=1)) + [("remainder", remainder)]
    return _write_csv(args.out, "index,digit", "%s,%s", rows)


def cmd_reconstruct(args) -> int:
    try:
        digits = tuple(int(part) for part in args.digits.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {args.digits!r} as comma-separated integers")
    value = reconstruct(digits)
    return _write_csv(args.out, "field,value", "%s,%s",
                      [("exact", value), ("approx", "%.17g" % value)])


def _j2_rows(n_max: int) -> Iterator[Tuple[int, float]]:
    # row N carries the partial sum of all series terms with index below N,
    # so the table starts at N = 3 (one term) and has n_max - 2 rows; the
    # arrays go once their floats are out
    return enumerate(j2_partial_sums(n_max - 1)[0].tolist(), start=3)


def cmd_j2(args) -> int:
    return _write_csv(args.out, *_J2_TABLE, _j2_rows(args.nmax))


def _decade_checkpoints(k_max: int) -> List[int]:
    return [10**e for e in range(1, len(str(k_max))) if 10**e < k_max] + [k_max]


def cmd_trim(args) -> int:
    # no seeds would print a header and no rows
    _require(args.seeds >= 1, "--seeds must be >= 1")
    checkpoints = _decade_checkpoints(args.kmax)
    targets = {k: c_k(k) for k in checkpoints}
    seeds = range(args.seed, args.seed + args.seeds)
    # one path per seed, one worker per usable core, rows in seed order
    paths = _ordered_map(lambda seed: mc_trimmed_trajectory(checkpoints, seed=seed), seeds)
    rows = [(seed, k, stat, targets[k]) for seed, path in zip(seeds, paths) for k, stat in path]
    return _write_csv(args.out, "seed,k,statistic,c_k", "%d,%d,%.17g,%.17g", rows)


def cmd_maxdist(args) -> int:
    c_list = args.c if args.c else [0.5, 1.0, 2.0]
    sampled = mc_max_scaled_cdf(args.k, c_list, args.samples, seed=args.seed)
    rows = []
    for c, r in zip(c_list, sampled):
        m = math.ceil(c * args.k)
        # (1 - 1/m)^k = max_cdf_exact(k, m - 1) in floats, for m >= 2.  Let
        # u = 2^-53 and take libm's log1p and exp faithful (error below 1 ulp,
        # so below 2u relative).  y = 1.0 / m rounds m and the quotient: 2u.
        # log1p(-y) has relative condition y / ((1 - y) |log1p(-y)|) <= 1/ln 2
        # for y <= 1/2, and rounds: 2u/ln 2 + 2u.  float(k) and the product
        # round once each: x = k log1p(-1/m) is within (2/ln 2 + 4) u < 7u
        # relative.  exp turns that into 7u|x| relative and rounds: the
        # column is within (7|x| + 2) u relative of the exact value, to first
        # order in u, unless exp underflows
        exact = math.exp(args.k * math.log1p(-1.0 / m)) if m > 1 else 0.0
        rows.append((c, r.estimate, exact, math.exp(-1.0 / c)))
    return _write_csv(args.out, "c,empirical,exact_finite_k,limit_exp",
                      "%.17g,%.17g,%.17g,%.17g", rows)


def cmd_cf(args) -> int:
    k_list = args.k if args.k else [2, 8, 16, 32]
    # mc_cf_rho_table sees only max(k): at k = 0, table[k - 1] is the last row
    _require(min(k_list) >= 1, "--k values must be >= 1")
    if args.statistic == "rho":
        table = mc_cf_rho_table(max(k_list), args.samples, seed=args.seed)
        rows = [(k, table[k - 1].estimate, table[k - 1].standard_error) for k in k_list]
        return _write_csv(args.out, "k,rho_hat,se", "%d,%.17g,%.17g", rows)
    # both candidate constants stay in the table.  The limit is 1/ln 2: Diamond
    # and Vaaler (Pacific J. Math. 122, 1986) prove (S_n - max a_i)/(n log n)
    # -> 1/ln 2 almost surely, but the approach is too slow to show at the
    # default depths
    rows = []
    for k, r in zip(k_list, mc_cf_trimmed_table(k_list, args.samples, seed=args.seed)):
        d1 = abs(r.estimate - math.log(2.0))
        d2 = abs(r.estimate - 1.0 / math.log(2.0))
        rows.append((k, r.estimate, r.standard_error, d1, d2))
    return _write_csv(args.out, "k,median,se,dist_log2,dist_inv_log2",
                      "%d,%.17g,%.17g,%.17g,%.17g", rows)


def cmd_figures(args) -> int:
    out_dir = args.out if args.out else "."
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "fig1.csv"), *_RHO_TABLE,
               _rho_rows(40, "exact", 128, 1e-6, 10**6, 0))
    return _write_csv(os.path.join(out_dir, "fig2.csv"), *_J2_TABLE, _j2_rows(1000))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luroth",
        description="Digit statistics of the Luroth expansion: extreme-value "
        "probabilities, trimmed-sum normalizers, and related tables as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output here instead of stdout")

    p = sub.add_parser("rho", help="probability the maximum digit is unique")
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--mode", choices=["exact", "series", "mc", "all"],
                   default="exact")
    p.add_argument("--precision-bits", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("expand", help="exact digit expansion of a rational")
    p.add_argument("value", help="rational in (0, 1], e.g. 5/7")
    p.add_argument("--count", type=int, default=10)
    add_out(p)

    p = sub.add_parser("reconstruct", help="exact value of a finite digit string")
    p.add_argument("digits", help="comma-separated digits, e.g. 2,1")
    add_out(p)

    p = sub.add_parser("j2", help="partial sums of the inverse-square W-ratio series")
    p.add_argument("--nmax", type=int, default=1000)
    add_out(p)

    p = sub.add_parser("trim", help="trimmed-sum trajectories at decade checkpoints")
    p.add_argument("--kmax", type=int, default=10**6)
    p.add_argument("--seeds", type=int, default=32)
    p.add_argument("--seed", type=int, default=0,
                   help="first seed; rows cover seed..seed+seeds-1")
    add_out(p)

    p = sub.add_parser("maxdist", help="scaled-maximum CDF: sampled vs exact vs limit")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--c", type=float, action="append",
                   help="scale point, repeatable (default 0.5 1 2)")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("cf", help="continued-fraction digit statistics (sampled)")
    p.add_argument("--k", type=int, action="append",
                   help="digit depth, repeatable (default 2 8 16 32)")
    p.add_argument("--statistic", choices=["rho", "trimmed"], default="rho")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("figures", help="write fig1.csv and fig2.csv into a directory")
    p.add_argument("--out", metavar="DIR", default=".",
                   help="target directory (created if missing)")

    return parser


_DISPATCH = {
    "rho": cmd_rho,
    "expand": cmd_expand,
    "reconstruct": cmd_reconstruct,
    "j2": cmd_j2,
    "trim": cmd_trim,
    "maxdist": cmd_maxdist,
    "cf": cmd_cf,
    "figures": cmd_figures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the objects the imports made live as long as the process; frozen for
    # the run, no collection it triggers scans them again (one such scan
    # took about 2 ms, more than a whole `rho --mode series` table)
    gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        # seeds seed..seed+seeds-1 key PCG64DXSM streams; checked whatever is drawn
        first = getattr(args, "seed", 0)
        _require(0 <= first and first + getattr(args, "seeds", 1) <= 1 << 64,
                 "every seed used must lie in [0, 2^64)")
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, RuntimeError, OSError, MemoryError) as exc:
        # OSError: an --out path that cannot be written; a MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    raise SystemExit(main())
