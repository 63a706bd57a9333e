"""Store the reference tables the benchmark verifies against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_refs.py

It writes ``perfbench/ref/``:

* ``rho_exact.csv``: ``luroth rho --mode exact --kmax 200`` as printed;
* ``fig2.csv``: the ``fig2.csv`` of ``luroth figures``;
* ``parent.json``: every 100th row of the largest ``j2`` table a workload
  runs, ``c_k`` at the decade checkpoints up to 10^6, and, for every ``trim``
  and ``cf`` invocation of every workload at both sizes, the mean and the
  standard deviation of its statistics over ``RUNS`` runs on seeds
  ``REF_SEED``, ``REF_SEED + 1``, ... that no workload seed below 2^15 shares.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

from invocations import REF_DIR, J2, Trim, _table
from run import SRC, WORKLOADS

RUNS = 24
REF_SEED = 2**20


def cli(argv):
    return subprocess.run([sys.executable, "-m", "luroth.cli"] + argv, check=True,
                          capture_output=True, env=dict(os.environ, PYTHONPATH=SRC)).stdout


def main():
    os.makedirs(REF_DIR, exist_ok=True)
    exact = cli(["rho", "--mode", "exact", "--kmax", "200"])
    with tempfile.TemporaryDirectory() as tmp:
        cli(["figures", "--out", tmp])
        with open(os.path.join(tmp, "fig1.csv"), "rb") as fh:
            fig1 = fh.read()
        with open(os.path.join(tmp, "fig2.csv"), "rb") as fh:
            fig2 = fh.read()
    if not exact.startswith(fig1):
        raise SystemExit("fig1.csv differs from the exact rho table")
    for name, data in (("rho_exact.csv", exact), ("fig2.csv", fig2)):
        with open(os.path.join(REF_DIR, name), "wb") as fh:
            fh.write(data)

    nmax = max(inv.nmax for w in WORKLOADS.values() for inv in w(0, False) if isinstance(inv, J2))
    j2 = {row[0]: float(row[1]) for row in _table(cli(["j2", "--nmax", str(nmax)]), J2.header)
          if int(row[0]) % 100 == 0}
    trim = _table(cli(["trim", "--kmax", "1000000", "--seeds", "1"]), Trim.header)
    c_k = {row[1]: float(row[3]) for row in trim}

    samples = {}
    for workload in WORKLOADS.values():
        for tiny in (False, True):
            for r in range(RUNS):
                for inv in workload(REF_SEED + r, tiny):
                    if hasattr(inv, "statistics"):
                        rows = _table(cli(inv.argv(None)), inv.header)
                        for sub, value in inv.statistics(rows).items():
                            samples.setdefault(inv.key, {}).setdefault(sub, []).append(value)
    stats = {key: {"runs": RUNS,
                   "mean": {sub: statistics.fmean(v) for sub, v in subs.items()},
                   "sd": {sub: statistics.stdev(v) for sub, v in subs.items()}}
             for key, subs in samples.items()}
    with open(os.path.join(REF_DIR, "parent.json"), "w") as fh:
        json.dump({"j2": j2, "c_k": c_k, "stats": stats}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
