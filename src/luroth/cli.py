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

Argv: ``COMMAND [POSITIONAL] (--flag VALUE | --flag=VALUE)...``, exact flag
names, values typed as in ``_COMMANDS``; ``cf --k`` and ``maxdist --c`` keep
all values in order, others the last; ``-h`` prints usage, other argv exits 2.
"""

import gc
import math
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .contfrac import mc_cf_rho_table, mc_cf_trimmed_table
from .expansion import expand, reconstruct
from .extrema import rho_exact, rho_series
from .precision import PrecisionError
from .simulation import _ordered_map, mc_max_scaled_cdf, mc_rho, mc_trimmed_trajectory
from .trimming import c_k, j2_partial_sums

__all__ = ["main"]


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


def cmd_rho(args) -> int:
    # rows start at k = 2, and each flag is checked whatever --mode calls
    _require(args.kmax >= 2, "--kmax must be >= 2")
    _require(args.precision_bits >= 8, "--precision-bits must be >= 8")
    # a bound of 1 says nothing about a probability; below 2^-52 rounding rules
    _require(2.0**-52 <= args.tol < 1.0, "--tol must lie in [2^-52, 1)")
    _require(args.samples >= 100, "--samples must be >= 100")
    methods = ["exact", "series", "mc"] if args.mode == "all" else [args.mode]
    sampled = mc_rho(args.kmax, args.samples, seed=args.seed) if "mc" in methods else []
    rows = []
    for k in range(2, args.kmax + 1):
        for method in methods:
            if method == "mc":
                r = sampled[k - 1]
                # for sampled rows the bound column carries the standard
                # error, a statistical scale rather than a certified bound
                rows.append((k, "monte-carlo", r.estimate, r.standard_error))
            else:
                exact = method == "exact"
                est = rho_exact(k, args.precision_bits) if exact else rho_series(k, args.tol)
                rows.append((k, "exact-formula" if exact else "series", est.value,
                             est.error_bound))
    return _write_csv(args.out, "k,method,value,error_bound", "%d,%s,%.17g,%.17g", rows)


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


def cmd_j2(args) -> int:
    # row N carries the partial sum of all series terms with index below N,
    # so the table starts at N = 3 (one term) and has nmax - 2 rows; the
    # arrays go once their floats are out
    _require(args.nmax >= 3, "--nmax must be >= 3")
    rows = enumerate(j2_partial_sums(args.nmax - 1)[0].tolist(), start=3)
    return _write_csv(args.out, "N,partial_sum", "%d,%.17g", rows)


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
    if args.statistic == "rho":
        table = mc_cf_rho_table(k_list, args.samples, seed=args.seed)
        rows = [(k, r.estimate, r.standard_error) for k, r in zip(k_list, table)]
        return _write_csv(args.out, "k,rho_hat,se", "%d,%.17g,%.17g", rows)
    # both candidate constants stay in the table.  The limit is 1/ln 2: Diamond
    # and Vaaler (Pacific J. Math. 122, 1986) prove (S_n - max a_i)/(n log n)
    # -> 1/ln 2 almost surely, but the approach is too slow to show at the
    # default depths
    rows = [(k, r.estimate, r.standard_error, abs(r.estimate - math.log(2.0)),
             abs(r.estimate - 1.0 / math.log(2.0)))
            for k, r in zip(k_list, mc_cf_trimmed_table(k_list, args.samples, seed=args.seed))]
    return _write_csv(args.out, "k,median,se,dist_log2,dist_inv_log2",
                      "%d,%.17g,%.17g,%.17g,%.17g", rows)


def cmd_figures(args) -> int:
    # fig1 and fig2 are the rho and j2 tables at their defaults
    out_dir = args.out if args.out else "."
    os.makedirs(out_dir, exist_ok=True)
    for command, name in (("rho", "fig1.csv"), ("j2", "fig2.csv")):
        handler, ns = _parse([command, "--out=" + os.path.join(out_dir, name)])
        handler(ns)
    return 0


# name -> (handler, help, positional or None, flags).  A flag's value has
# its default's type, str for None; a tuple lists the choices, the first the
# default, and a list holds the type of a repeatable flag, None until given
_COMMANDS = {
    "rho": (cmd_rho, "probability the maximum digit is unique", None,
            {"kmax": 40, "mode": ("exact", "series", "mc", "all"), "precision-bits": 128,
             "tol": 1e-6, "samples": 10**6, "seed": 0, "out": None}),
    "expand": (cmd_expand, "exact digits of a rational in (0, 1], e.g. 5/7", "value",
               {"count": 10, "out": None}),
    "reconstruct": (cmd_reconstruct, "exact value of digits, e.g. 2,1", "digits", {"out": None}),
    "j2": (cmd_j2, "partial sums of the W-ratio series", None, {"nmax": 1000, "out": None}),
    "trim": (cmd_trim, "trimmed-sum trajectories of seeds seed..seed+seeds-1", None,
             {"kmax": 10**6, "seeds": 32, "seed": 0, "out": None}),
    "maxdist": (cmd_maxdist, "scaled-maximum CDF: sampled, exact, limit (c 0.5 1 2)", None,
                {"k": 1000, "c": [float], "samples": 10**6, "seed": 0, "out": None}),
    "cf": (cmd_cf, "continued-fraction digit statistics, sampled (k 2 8 16 32)", None,
           {"k": [int], "statistic": ("rho", "trimmed"), "samples": 10**6, "seed": 0,
            "out": None}),
    "figures": (cmd_figures, "write fig1.csv and fig2.csv into --out", None, {"out": "."}),
}


def _help(args) -> int:
    text = "usage: luroth COMMAND [ARG] [--flag VALUE | --flag=VALUE]...\n"
    for name, (_, about, positional, flags) in _COMMANDS.items():
        words = [name, (positional or "").upper()] + [
            "[--%s %s]..." % (f, d[0].__name__) if isinstance(d, list) else
            "[--%s %s]" % (f, "|".join(d) if isinstance(d, tuple) else
                           "PATH" if d is None else d) for f, d in flags.items()]
        text += "\n  %s\n    luroth %s" % (about, " ".join(filter(None, words)))
    sys.stdout.write(text + "\n")
    return 0


def _parse(argv: Sequence[str]) -> Tuple[Callable[..., int], Optional[SimpleNamespace]]:
    """(handler, namespace) of argv; ValueError outside the module's argv language."""
    if "-h" in argv or "--help" in argv:
        return _help, None
    command, *rest = argv or [""]
    if command not in _COMMANDS:
        raise ValueError("the command must be one of " + ", ".join(_COMMANDS))
    handler, _, positional, flags = _COMMANDS[command]
    values = {f.replace("-", "_"): d[0] if isinstance(d, tuple) else
              None if isinstance(d, list) else d for f, d in flags.items()}
    found = []
    tokens = iter(rest)
    for arg in tokens:
        if not arg.startswith("--"):
            found.append(arg)
            continue
        flag, eq, value = arg[2:].partition("=")
        if flag not in flags:
            raise ValueError("%s has no flag --%s" % (command, flag))
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ValueError("--%s needs a value" % flag)
        d, key = flags[flag], flag.replace("-", "_")
        kind = d[0] if isinstance(d, list) else type(d) if isinstance(d, (int, float)) else str
        try:
            v = kind(value)
        except ValueError:
            raise ValueError("--%s takes %s values, not %r" % (flag, kind.__name__, value))
        if isinstance(d, tuple) and v not in d:
            raise ValueError("--%s must be one of %s, not %r" % (flag, "|".join(d), v))
        values[key] = (values[key] or []) + [v] if isinstance(d, list) else v
    if len(found) != (positional is not None):
        raise ValueError("%s takes %s, not %r" % (command, positional or "no argument", found))
    return handler, SimpleNamespace(command=command, **dict(zip([positional], found)), **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the objects the imports made live as long as the process; frozen for
    # the run, no collection it triggers scans them again (one such scan
    # took about 2 ms, more than a whole `rho --mode series` table)
    gc.freeze()
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        # seeds seed..seed+seeds-1 key PCG64DXSM streams; checked whatever is drawn
        first = getattr(args, "seed", 0)
        _require(0 <= first and first + getattr(args, "seeds", 1) <= 1 << 64,
                 "every seed used must lie in [0, 2^64)")
        return handler(args)
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
