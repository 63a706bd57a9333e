"""Child process of the benchmark: one luroth CLI invocation, timed.

    python3 perfbench/invoke.py RECORD_PATH plain|trace CLI_ARGS...

``imported`` is taken once ``luroth.cli`` is imported (and, in a traced run,
wrapped), so interpreter start and import end there.  ``ready`` and ``done``
bracket ``main`` up to the flush of stdout, i.e. the last CSV byte.  Around
them the calibration kernel runs once before and once after, outside both
intervals.  Times are ``time.perf_counter`` readings, which on Linux come
from the system-wide CLOCK_MONOTONIC and so compare with the parent's launch
time.  The record is written as JSON to RECORD_PATH.
"""

import os
import sys
import time
from fractions import Fraction


def calibration_kernel(words=1 << 20, terms=2500):
    """Seconds a fixed piece of work takes on this host right now.

    It mixes what the workloads do, Philox words mapped to digits by numpy
    on arrays larger than the caches and exact rationals in pure Python, and
    calls no luroth code, so no change to the program moves it; only the
    speed of the host does.
    """
    import numpy as np

    start = time.perf_counter()
    bg = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    for _ in range(3):
        np.uint64(1 << 63) // ((bg.random_raw(words) >> np.uint64(1)) | np.uint64(1))
    acc = Fraction(0)
    for i in range(1, terms):
        acc += Fraction(1, i * i)
    return time.perf_counter() - start


def calibrate():
    """calibration_kernel run in a fork of this process.

    The fork shares this process's CPU and state but not its peak resident
    set, so the kernel's arrays do not show in the invocation's peak RSS.  A
    small untimed run first takes the fork's copy-on-write faults.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            calibration_kernel(1 << 10, 10)
            os.write(write_end, repr(calibration_kernel()).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        seconds = float(fh.read())
    os.waitpid(pid, 0)
    return seconds


def main() -> int:
    record_path, mode, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import luroth.cli

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    imported = time.perf_counter()
    before = calibrate()
    ready = time.perf_counter()
    try:
        code = luroth.cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    done = time.perf_counter()
    after = calibrate()

    import json
    import resource

    import numpy

    record = {
        "imported": imported,
        "ready": ready,
        "done": done,
        "exit": code,
        "calibration": [before, after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "luroth_file": luroth.cli.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "trace": tracer.summary() if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
