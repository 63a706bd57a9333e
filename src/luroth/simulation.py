"""Reproducible Monte Carlo for Luroth digit statistics.

Trials are partitioned into fixed-size blocks; block b always draws from
stream index b of the seed's Philox family and partial results are reduced
in block order.  The draws depend only on (seed, samples) for rho (and for
the continued-fraction sweeps in ``contfrac``, which share its block loop
and uniqueness counter) and on (seed, samples, k) for the digit-matrix
trials, never on k_max, on the c-grid, on the worker count or on the
chunks a block is drawn in.  So one pass yields every row of a sweep, and
each row is bit-identical whether run serially, on a thread pool, or alone.
Every sweep runs one worker per usable core by default; numpy releases the
interpreter lock in Philox and in its array loops, so the blocks overlap.
"""

import math
import os
import threading
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .rng import RngStream

__all__ = [
    "McResult",
    "mc_max_scaled_cdf",
    "mc_rho",
    "mc_trimmed_trajectory",
]

_RHO_BLOCK = 1 << 15
_MATRIX_DRAW_BUDGET = 1 << 22  # per-block draw count for matrix-shaped trials
_TRAJ_CHUNK = 1 << 16  # 512 KB of digits: a chunk stays in cache while it is summed


class McResult(NamedTuple):
    estimate: float
    standard_error: float


def _usable_cpus() -> List[int]:
    """The CPUs this thread may run on, or [] where the OS keeps no mask."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _usable_cores() -> int:
    """The default worker count: one per usable CPU."""
    return len(_usable_cpus()) or os.cpu_count() or 1


def _ordered_map(fn: Callable[[object], object], items: Sequence[object],
                 workers: Optional[int] = None) -> List[object]:
    """[fn(x) for x in items], on worker threads when more than one runs.

    workers=None means one per usable core; never more than one per item.
    Results come back in item order, so the output does not depend on the
    worker count as long as fn(x) depends on x alone.  Each worker thread is
    bound to its own usable CPU, in turn: left to the scheduler, two workers
    were seen sharing one vCPU of a 2-vCPU VM for minutes while the other
    stayed idle.  If some fn(x) raises, the exception of the first such item
    is raised here once every worker has stopped, as the serial loop would.
    """
    workers = min(_usable_cores() if workers is None else workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    mask = _usable_cpus()
    results = [None] * len(items)
    failures = {}  # item index -> exception
    lock = threading.Lock()
    pending = iter(range(len(items)))

    def work(cpu: Optional[int]):
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})  # this thread only
            except OSError:  # the CPU left the mask meanwhile: run unbound
                pass
        while True:
            # items go out in order, so once one has failed every item
            # before it is already taken and no later one is needed
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    threads = [threading.Thread(target=work, args=(mask[w % len(mask)] if mask else None,))
               for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[min(failures)]
    return results


def _exact_sum_u64(a: np.ndarray) -> int:
    """Exact sum of a uint64 array of at most 2^32 entries, any values.

    Split 32/32: each half is below 2^32, so each half-sum of at most 2^32
    of them stays below 2^64 and cannot wrap in uint64.
    """
    hi = int(np.sum(a >> np.uint64(32)))
    lo = int(np.sum(a & np.uint64(0xFFFFFFFF)))
    return (hi << 32) + lo


def _sum_and_max(d: np.ndarray) -> Tuple[int, int]:
    """Exact sum and maximum of a uint64 array of at most 2^32 entries.

    The entries are nonnegative, so every partial sum of the plain uint64
    sum lies between 0 and the total, which is at most m * n for maximum m
    over n entries: when m * n < 2^64 no partial sum can wrap and the one
    pass is exact.  Otherwise the split sum is.  For a chunk of 2^16 digits
    the split runs only when some digit reaches 2^48, about 2^-32 per chunk.
    """
    m = int(d.max())
    if m * d.size < 1 << 64:
        return int(d.sum()), m
    return _exact_sum_u64(d), m


def _blocked(samples: int, block: int) -> List[int]:
    """Trial counts of the blocks: all equal to block but a shorter last one."""
    return [min(block, samples - start) for start in range(0, samples, block)]


def _binomial(successes: int, n: int) -> McResult:
    p = successes / n
    return McResult(p, math.sqrt(p * (1.0 - p) / n))


def _step_blocks(samples: int, seed: int, workers: Optional[int],
                 per_block: Callable[[RngStream, int], object]) -> List[object]:
    """per_block(stream, n) on blocks of _RHO_BLOCK trials, in block order.

    Block b draws from stream b and holds trials b * _RHO_BLOCK onward.  A
    per_block that draws one variate per trial and step makes the first k
    steps of a pass the draws of a k-step pass, so row k of a sweep depends
    on (seed, samples, k) only.
    """
    sizes = _blocked(samples, _RHO_BLOCK)
    return _ordered_map(lambda b: per_block(RngStream(seed, b), sizes[b]),
                        range(len(sizes)), workers)


def _unique_max_table(samples: int, seed: int, workers: Optional[int],
                      digit_steps: Callable[[RngStream, int], Iterable[np.ndarray]]
                      ) -> List[McResult]:
    """Row i: the fraction of trials whose maximum over digits 1..i+1 is unique.

    ``digit_steps(stream, n)`` yields one array of n digits >= 1 per step, of
    any ordered dtype; it runs once per block of ``_step_blocks``.  The
    running maximum and runner-up are kept per trial (a tie puts the
    runner-up at the maximum), and the maximum is unique iff runner-up < max.
    """
    def one_block(stream: RngStream, n: int) -> List[int]:
        steps = iter(digit_steps(stream, n))
        maxd = next(steps).copy()
        second = np.zeros_like(maxd)  # below every digit
        low = np.empty_like(maxd)
        unique = [n]
        for d in steps:
            np.minimum(maxd, d, out=low)
            np.maximum(second, low, out=second)
            np.maximum(maxd, d, out=maxd)
            unique.append(int(np.count_nonzero(second < maxd)))
        return unique

    per_block = _step_blocks(samples, seed, workers, one_block)
    return [_binomial(sum(row), samples) for row in zip(*per_block)]


def mc_rho(k_max: int, samples: int, seed: int = 0,
           workers: Optional[int] = None) -> List[McResult]:
    """Fraction of trials whose maximum digit among k draws is unique.

    Returns one result per k = 1..k_max; row i is k = i + 1.  Each block
    draws one digit per trial and step, so row k does not depend on k_max.
    workers=None runs one worker per usable core.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    return _unique_max_table(samples, seed, workers, lambda stream, n: (
        stream.luroth_digits(n) for _ in range(k_max)))


def mc_max_scaled_cdf(k: int, cs: Sequence[float], samples: int, seed: int = 0,
                      workers: Optional[int] = None) -> List[McResult]:
    """Estimates of P(max of k digits < c*k), the scaled-maximum CDF, per c.

    The event max/k < c is max <= ceil(c*k) - 1 on integers, so each estimate
    targets the exact finite-k value (1 - 1/ceil(c*k))^k.  One pass draws the
    trials and takes each trial's maximum once for the whole c-grid, from
    the row minimum of its raw words (``RngStream.luroth_row_maxima``).
    Trials come in blocks of about _MATRIX_DRAW_BUDGET draws; block b draws
    its trials from stream b, row-major, k draws per trial.  workers=None
    runs one worker per usable core.
    """
    cs = list(cs)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not all(c > 0 and math.isfinite(c * k) for c in cs):
        raise ValueError("c must be positive, with c*k finite")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    sizes = _blocked(samples, max(1, _MATRIX_DRAW_BUDGET // k))
    maxes = np.concatenate(_ordered_map(
        lambda b: RngStream(seed, b).luroth_row_maxima(sizes[b], k), range(len(sizes)), workers))
    # digits lie in [1, 2^63], so clamping the threshold there changes no count
    thresholds = [np.uint64(min(max(math.ceil(c * k) - 1, 0), 1 << 63)) for c in cs]
    return [_binomial(int((maxes <= t).sum()), samples) for t in thresholds]


def mc_trimmed_trajectory(
    k_max: int, checkpoints: Sequence[int], seed: int = 0
) -> List[Tuple[int, float]]:
    """One digit path X_1..X_kmax; reports (S_k - M_k)/(k log k) at checkpoints.

    The running sum and maximum are kept as exact Python integers (unbounded,
    so no overflow for any digit magnitude or path length); the statistic is
    formed in floating point only at each checkpoint.  Natural logarithm.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    cps = list(checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps != sorted(set(cps)):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 2 or cps[-1] > k_max:
        raise ValueError("checkpoints must lie in [2, k_max]")
    stream = RngStream(seed)
    total = 0
    biggest = 0
    pos = 0
    out = []
    for cp in cps:
        need = cp - pos
        while need > 0:
            n = min(need, _TRAJ_CHUNK)
            s, m = _sum_and_max(stream.luroth_digits(n))
            total += s
            biggest = max(biggest, m)
            need -= n
        pos = cp
        out.append((cp, float(total - biggest) / (cp * math.log(cp))))
    return out
