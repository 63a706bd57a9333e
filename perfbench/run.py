"""End-to-end and per-layer benchmark of the ``luroth`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload mc-tables --seed 1 --seconds 35 --trace 0

Load model: a closed loop with one client.  A workload is a fixed list of
CLI invocations; the benchmark runs them one at a time, each in a fresh
interpreter (``invoke.py``) against the sources under ``src/``, so the
package's zeta and Bernoulli caches start cold as they do for a CLI user.
It repeats the whole list until ``--seconds`` have passed and reports the
median over the repetitions.  Only the benchmark's seed reaches the program,
as the ``--seed`` of the generated argv.

End-to-end metrics, from untraced repetitions only; each is the sum (for
``peak_rss_mb`` the maximum) over the invocations of the median over the
repetitions:

* ``wall_s``: from the end of an invocation's imports to its last CSV byte;
* ``setup_s``: interpreter start plus ``import luroth.cli``;
* ``peak_rss_mb``: an invocation's peak resident set size.

Times are calibrated.  The child runs a fixed kernel of numpy and
pure-Python work (``invoke.calibration_kernel``) just before and just after
the CLI's work, and the invocation's times are scaled by CALIBRATION_REF_S
over the mean of the two kernel times.  The speed of a shared host drifts by
tens of percent over seconds to minutes; the kernel, run in the same process
next to the work, tracks that drift and takes it out.  The report prints the
raw times too.

Every output row is verified (``invocations.py``), and every repetition must
reproduce the first one's output byte for byte; ``failed``/``attempted``
count rows, and their quotient is the ``fail_frac`` printed in the report.

With ``--trace 1`` the benchmark alternates untraced repetitions with traced
ones, in which ``spans.py`` records a span around every public callable of
the package, and it reports the per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the report
and the host record, which is also written with the per-function table to
``.perfbench_out/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from invocations import J2, Cf, Figures, MaxDist, Refs, Rho, Trim

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
INVOKE = os.path.join(HERE, "invoke.py")

HARD_LIMIT_S = 165.0  # a run must end well inside 180 s
# about the median time of invoke.calibration_kernel on the host the benchmark
# was defined on (2-core Xeon VM, Python 3.11, numpy 2.4); a scale only
CALIBRATION_REF_S = 0.068
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CS = (0.5, 1.0, 2.0)
CF_KS = (2, 8, 16, 32)


def mc_tables(seed, tiny):
    # Monte Carlo sweeps, where rng.luroth_digits dominates: thousands of
    # 32k-word draws for rho and 4M-word matrix draws for maxdist.  Every k
    # and every c draws all its digits again.
    if tiny:
        return [Rho(6, "mc", samples=2000, seed=seed), MaxDist(50, CS, 2000, seed)]
    return [Rho(40, "mc", samples=32768, seed=seed), MaxDist(1000, CS, 12500, seed)]


def certified_tables(seed, tiny):
    # Exact-rational zeta under rho_exact, the numpy series, and the
    # fixed-point Lambert W under j2_partial_sums; no random numbers, so the
    # seed changes nothing here.
    if tiny:
        return [Rho(12, "exact"), Rho(6, "series", tol=1e-3), J2(300), Figures()]
    return [Rho(120, "exact"), Rho(40, "series", tol=4e-5), J2(20000), Figures()]


def paths(seed, tiny):
    # Long serial digit streams in 2^19-word chunks (trim) and Gauss-measure
    # uniforms with Gauss-map steps (cf): rng serves few large calls here.
    if tiny:
        return [Trim(10**4, 4, seed), Cf(CF_KS[:2], "rho", 10**4, seed),
                Cf(CF_KS[:2], "trimmed", 10**4, seed)]
    return [Trim(10**6, 16, seed), Cf(CF_KS, "rho", 500000, seed),
            Cf(CF_KS, "trimmed", 500000, seed)]


WORKLOADS = {"mc-tables": mc_tables, "certified-tables": certified_tables, "paths": paths}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rng.self_s": "s", "rng.words": "count", "rng.ns_per_word": "ns",
    "rng.streams": "count",
    "simulation.self_s": "s", "simulation.words_per_row": "words/row",
    "extrema.self_s": "s", "extrema.rho_exact.self_s": "s",
    "extrema.rho_series.self_s": "s",
    "precision.self_s": "s",
    "trimming.self_s": "s", "trimming.j2_partial_sums.self_s": "s",
    "trimming.c_k.self_s": "s", "trimming.harmonic.self_s": "s",
    "contfrac.self_s": "s", "contfrac.digit_steps": "count",
    "contfrac.aborted": "count",
    "expansion.self_s": "s",
    "cli.self_s": "s", "cli.rows": "count",
    "trace.self_sum_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


class Outcome:
    """What one invocation produced and cost."""

    def __init__(self, argv):
        self.argv = argv
        self.ok = False
        self.setup_s = self.wall_s = self.rss_mb = 0.0
        self.raw_setup_s = self.raw_wall_s = 0.0
        self.speed = 1.0
        self.outputs = {}
        self.trace = None
        self.record = {}
        self.error = ""


class Runner:
    """Runs invocations one at a time in fresh interpreters."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.update((var, "1") for var in THREAD_VARS)
        self.record_path = os.path.join(OUT, "record.json")
        self.stdout_path = os.path.join(OUT, "stdout.csv")
        self.stderr_path = os.path.join(OUT, "stderr.txt")
        self.fig_dir = os.path.join(OUT, "figures")

    def run(self, inv, mode):
        argv = inv.argv(self.fig_dir)
        oc = Outcome(argv)
        stale = [self.record_path] + [os.path.join(self.fig_dir, f) for f in inv.files if f]
        for path in stale:
            if os.path.exists(path):
                os.remove(path)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            oc.error = "not started: the run's time limit was reached"
            return oc
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            launch = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, INVOKE, self.record_path, mode] + argv,
                                      stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                oc.error = "killed at the run's time limit"
                return oc
        with open(self.stderr_path, "rb") as fh:
            oc.error = fh.read().decode(errors="replace").strip()[-500:]
        if proc.returncode != 0 or not os.path.exists(self.record_path):
            oc.error = "exit %d: %s" % (proc.returncode, oc.error)
            return oc
        with open(self.record_path) as fh:
            rec = json.load(fh)
        if not rec["luroth_file"].startswith(SRC + os.sep):
            oc.error = "imported luroth from %s, not from %s" % (rec["luroth_file"], SRC)
            return oc
        for name in inv.files:
            with open(self.stdout_path if name is None else os.path.join(self.fig_dir, name),
                      "rb") as fh:
                oc.outputs[name] = fh.read()
        oc.ok = True
        oc.speed = 2.0 * CALIBRATION_REF_S / sum(rec["calibration"])
        oc.raw_setup_s = rec["imported"] - launch
        oc.raw_wall_s = rec["done"] - rec["ready"]
        oc.setup_s = oc.raw_setup_s * oc.speed
        oc.wall_s = oc.raw_wall_s * oc.speed
        oc.rss_mb = rec["maxrss_kb"] / 1024.0
        oc.trace = rec["trace"]
        oc.record = rec
        return oc


def _data_rows(outputs):
    return sum(max(data.count(b"\n") - 1, 0) for data in outputs.values())


def layer_metrics(outcomes):
    """Per-layer metrics of one traced repetition, summed over its invocations."""
    layers, functions, counts = {}, {}, {}
    for oc in outcomes:
        for name, value in oc.trace["layers"].items():
            layers[name] = layers.get(name, 0.0) + value * oc.speed
        for name, (calls, self_s) in oc.trace["functions"].items():
            total = functions.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s * oc.speed
        for name, value in oc.trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    words = counts["rng.words"]
    m = {name + ".self_s": layers[name] for name in
         ("rng", "simulation", "extrema", "precision", "trimming", "contfrac",
          "expansion", "cli")}
    for fn in ("extrema.rho_exact", "extrema.rho_series", "trimming.j2_partial_sums",
               "trimming.c_k", "trimming.harmonic"):
        m[fn + ".self_s"] = functions.get(fn, [0, 0.0])[1]
    m["rng.words"] = words
    m["rng.ns_per_word"] = 1e9 * layers["rng"] / words if words else 0.0
    m["rng.streams"] = counts["rng.streams"]
    rows = counts["simulation.rows"]
    m["simulation.words_per_row"] = counts["simulation.words"] / rows if rows else 0.0
    m["contfrac.digit_steps"] = counts["contfrac.digit_steps"]
    m["contfrac.aborted"] = counts["contfrac.aborted"]
    m["cli.rows"] = sum(_data_rows(oc.outputs) for oc in outcomes)
    m["trace.self_sum_s"] = sum(layers.values())
    m["trace.wall_s"] = sum(oc.wall_s for oc in outcomes)
    return m, functions


def _median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def _median_at(sets, i, attr):
    """Median over repetitions of one attribute of invocation i."""
    return statistics.median(getattr(s[i], attr) for s in sets)


def host_record(seed, seconds, plain, traced, numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a checkout may be no repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "luroth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "repeats": plain,
        "traced_repeats": traced,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_child": {var: "1" for var in THREAD_VARS},
    }


def measure(name, seed, seconds, trace, tiny, refs, deadline):
    """Run one workload for ``seconds``; returns the result dict."""
    invs = WORKLOADS[name](seed, tiny)
    runner = Runner(deadline)
    runner.run(J2(3), "plain")  # warm-up: byte-compile and page in, not measured
    modes = ("plain", "trace") if trace else ("plain",)
    sets = {mode: [] for mode in modes}
    first = {}
    attempted = failed = 0
    notes = []
    start = time.monotonic()
    while True:
        for mode in modes:
            outcomes = [runner.run(inv, mode) for inv in invs]
            for i, (inv, oc) in enumerate(zip(invs, outcomes)):
                attempted += inv.rows
                if not oc.ok:
                    failed += inv.rows
                    notes.append("%s: %s" % (" ".join(oc.argv), oc.error))
                elif i not in first:
                    try:
                        bad, why = inv.verify(oc.outputs, refs)
                    except (ValueError, IndexError, KeyError) as exc:
                        bad, why = inv.rows, ["%s: unreadable output: %r" % (inv.label(), exc)]
                    first[i] = (oc.outputs, bad)
                    failed += bad
                    notes += why
                elif oc.outputs != first[i][0]:
                    failed += inv.rows
                    notes.append("%s: output differs from the first repetition"
                                 % " ".join(oc.argv))
                else:
                    failed += first[i][1]
            if all(oc.ok for oc in outcomes):
                sets[mode].append(outcomes)
        if time.monotonic() - start >= seconds or time.monotonic() >= deadline:
            break
    if not all(sets.values()):
        return {"attempted": attempted, "failed": max(failed, 1), "metrics": None,
                "notes": notes, "invocations": [inv.label() for inv in invs]}

    plain = sets["plain"]
    per_invocation = [
        {"argv": inv.label(),
         **{key: _median_at(plain, i, key)
            for key in ("wall_s", "setup_s", "rss_mb", "raw_wall_s", "raw_setup_s")}}
        for i, inv in enumerate(invs)]
    e2e = {
        "wall_s": sum(p["wall_s"] for p in per_invocation),
        "setup_s": sum(p["setup_s"] for p in per_invocation),
        "peak_rss_mb": max(p["rss_mb"] for p in per_invocation),
    }
    result = {
        "attempted": attempted, "failed": failed, "notes": notes,
        "end_to_end": e2e, "per_invocation": per_invocation,
        "raw_wall_s": sum(p["raw_wall_s"] for p in per_invocation),
        "raw_setup_s": sum(p["raw_setup_s"] for p in per_invocation),
        "repeats": [{key: [getattr(oc, key) for oc in s]
                     for key in ("raw_wall_s", "raw_setup_s", "rss_mb", "speed")} for s in plain],
        "host": host_record(seed, seconds, len(plain), len(sets.get("trace", [])),
                            plain[0][0].record["numpy"]),
    }
    if trace:
        per_set = [layer_metrics(s) for s in sets["trace"]]
        layer = {key: _median_of([m for m, _ in per_set], key) for key in PER_LAYER
                 if key != "trace.overhead_s"}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
        fn_names = sorted({fn for _, f in per_set for fn in f})
        result["per_layer"] = layer
        result["functions"] = {
            fn: {"calls": statistics.median(f.get(fn, [0, 0.0])[0] for _, f in per_set),
                 "self_s": statistics.median(f.get(fn, [0, 0.0])[1] for _, f in per_set)}
            for fn in fn_names}
    result["metrics"] = result["per_layer"] if trace else e2e
    return result


def report(name, result, trace):
    """Human-readable lines for one workload."""
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines = ["== %s" % name]
    if result["metrics"] is None:
        lines.append("  no complete repetition; fail_frac %.6g fraction" % frac)
        return lines
    host = result["host"]
    lines.append("  host " + json.dumps(host, sort_keys=True))
    lines.append("  repeats %d (traced %d), median over repeats"
                 % (host["repeats"], host["traced_repeats"]))
    for key, unit in END_TO_END.items():
        lines.append("  %-34s %14.6f %s" % (key, result["end_to_end"][key], unit))
    lines.append("  %-34s %14.6g fraction (%d of %d rows)"
                 % ("fail_frac", frac, result["failed"], result["attempted"]))
    lines.append("  %-34s %14.6f s, %14.6f s (uncalibrated wall_s, setup_s)"
                 % ("raw", result["raw_wall_s"], result["raw_setup_s"]))
    for inv in result["per_invocation"]:
        lines.append("    %-60s wall %.4f s  setup %.4f s  rss %.1f MB  (raw %.4f s, %.4f s)"
                     % (inv["argv"], inv["wall_s"], inv["setup_s"], inv["rss_mb"],
                        inv["raw_wall_s"], inv["raw_setup_s"]))
    if trace:
        for key, unit in PER_LAYER.items():
            lines.append("  %-34s %14.6f %s" % (key, result["per_layer"][key], unit))
        lines.append("  self-time sum %.4f s (traced wall %.4f s) vs untraced wall_s %.4f s"
                     % (result["per_layer"]["trace.self_sum_s"],
                        result["per_layer"]["trace.wall_s"], result["end_to_end"]["wall_s"]))
        for fn, f in sorted(result["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append("    self %-44s %.4f s in %d calls" % (fn, f["self_s"], f["calls"]))
    return lines


def _seed(text):
    seed = int(text)
    if not 0 <= seed < 2**32:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2^32)")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workloads at smoke-test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "luroth", "cli.py")):
        print("perfbench: no luroth sources under %s" % SRC, file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    refs = Refs()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    budget = HARD_LIMIT_S * (len(names) if args.workload == "all" else 1)
    results = {}
    for i, name in enumerate(names):
        deadline = start + budget * (i + 1) / len(names)
        results[name] = result = measure(name, args.seed, args.seconds, args.trace,
                                         args.tiny, refs, deadline)
        for line in report(name, result, args.trace):
            print(line)
        for note in result["notes"][:10]:
            print("perfbench: %s" % note, file=sys.stderr)
        path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(names) == 1 else name + "."
        for key, value in (result["metrics"] or {}).items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = all(r["metrics"] is not None for r in results.values())
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
