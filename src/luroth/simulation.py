"""Reproducible Monte Carlo for Luroth digit statistics.

Trials are partitioned into fixed-size blocks; block b always draws from
stream b of the seed, a SeedSequence-keyed PCG64DXSM stream
(``RngStream``), and partial results are reduced in block order.
A block holds _RHO_BLOCK trials.  The draws depend only on (seed, samples)
for rho (and for the continued-fraction sweeps in ``contfrac``, which share
its block loop and uniqueness counter) and for the scaled maximum, whose
trials draw one word each, mapped to the maximum of k digits in law
(``RngStream.luroth_row_maxima``); never on k_max, on the c-grid or on the
worker count.  So one pass yields every row of a sweep, and each row is
bit-identical whether run serially, on a thread pool, or alone.
A trimmed-sum path draws the sum and the maximum of each stretch of digits in
law, never the digits (``RngStream.luroth_sum_max``).
Every sweep runs one worker per usable core; numpy releases the
interpreter lock in its generators and array loops, so the blocks overlap.
"""

import contextlib
import math
import os
import threading
from typing import Callable, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .rng import RngStream

__all__ = [
    "McResult",
    "mc_max_scaled_cdf",
    "mc_rho",
    "mc_trimmed_trajectory",
]

_RHO_BLOCK = 1 << 15


class McResult(NamedTuple):
    estimate: float
    standard_error: float


def _usable_cpus() -> List[int]:
    """The CPUs this thread may run on, or [] where the OS keeps no mask."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _usable_cores() -> int:
    """The worker count: one per usable CPU."""
    return len(_usable_cpus()) or os.cpu_count() or 1


def _ordered_map(fn: Callable[[object], object], items: Sequence[object]) -> List[object]:
    """[fn(x) for x in items], on worker threads when more than one runs.

    One worker runs per usable core, never more than one per item; this is
    the only place that sets a thread count.  Of W workers, worker w runs
    items w, w + W, w + 2W, ... into the items' own result slots, so the
    output does not depend on W as long as fn(x) depends on x alone.  Every
    caller passes items of equal cost (blocks of _RHO_BLOCK trials, the last
    shorter; one trim path per seed), so this fixed deal splits the work as
    a queue would among workers of equal speed.
    Each worker is bound to its own usable CPU, in turn: the scheduler was
    seen to keep two workers on one vCPU of a 2-vCPU VM for minutes.  A
    worker stops at its first failing item, and the least one seen is raised
    once all have stopped.  That is the first item i* to fail in the serial
    loop: every item below i* succeeds, so i*'s worker reaches it, and any
    other failure seen is a failing item, so it lies above i*.
    """
    workers = min(_usable_cores(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    mask = _usable_cpus()
    results = [None] * len(items)
    failed = [None] * workers  # worker -> (item index, exception)

    def work(w: int):
        if mask:  # bind this thread only; if the CPU left the mask meanwhile, run unbound
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {mask[w % len(mask)]})
        for i in range(w, len(items), workers):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failed[w] = (i, exc)
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = min((f for f in failed if f is not None), default=None)  # indices differ
    if first is not None:
        raise first[1]
    return results


def _binomial(successes: int, n: int) -> McResult:
    p = successes / n
    return McResult(p, math.sqrt(p * (1.0 - p) / n))


def _check_samples(samples: int, least: int):
    # _ordered_map sets aside one result slot per block before any block runs:
    # 2^32 trials make 2^17 blocks of 2^15, a 1 MiB list of slots, where
    # 2^47 made 2^32 slots (32 GiB).  Each block's result (a few counts per
    # row, or cf trimmed histograms bounded in ``contfrac``) is held to the
    # end.  2^17 blocks stay far below the 2^32 stream indices RngStream takes.
    if samples < least:
        raise ValueError("samples must be >= %d" % least)
    if samples > 1 << 32:
        raise ValueError("samples must be <= 2^32")


def _step_blocks(samples: int, seed: int,
                 per_block: Callable[[RngStream, int], object]) -> List[object]:
    """per_block(stream, n) on blocks of _RHO_BLOCK trials, in block order.

    Block b draws from stream b (``stream_index`` b) and holds the n trials
    from b * _RHO_BLOCK on: a full block, or fewer in the last one.  A
    per_block drawing one variate per trial and step makes the first k steps
    of a pass the draws of a k-step pass, so row k depends on (seed, samples, k).
    """
    return _ordered_map(lambda b: per_block(RngStream(seed, b),
                                            min(_RHO_BLOCK, samples - b * _RHO_BLOCK)),
                        range(-(-samples // _RHO_BLOCK)))


def _unique_max_table(samples: int, seed: int,
                      digit_steps: Callable[[RngStream, int], Iterable[np.ndarray]],
                      ks: Sequence[int]) -> List[McResult]:
    """The fraction of trials whose maximum over digits 1..k is unique, per entry of ks.

    ``digit_steps(stream, n)`` yields max(ks) arrays of n digits >= 1, one per
    step, of any ordered dtype, each of which the next step may overwrite; it
    runs once per ``_step_blocks`` block of _RHO_BLOCK trials.  Per trial the
    running maximum and a one-byte flag, tied, are kept: tied holds when the
    maximum so far is attained more than once.  A digit above the maximum
    clears the flag, one equal to it sets it, a smaller one leaves it; for
    bools, tied and not above is tied > above, so no scratch array is made.
    At the steps in ks only, the trials with the flag clear are counted.
    """
    def one_block(stream: RngStream, n: int) -> List[int]:
        steps = iter(digit_steps(stream, n))
        maxd = next(steps).copy()
        tied, above, equal = (np.zeros(n, dtype=bool) for _ in range(3))
        unique = {1: n}
        for k, d in enumerate(steps, start=2):
            np.greater(d, maxd, out=above)
            np.equal(d, maxd, out=equal)
            tied |= equal
            np.greater(tied, above, out=tied)
            np.maximum(maxd, d, out=maxd)
            if k in ks:
                unique[k] = n - int(np.count_nonzero(tied))
        return [unique[k] for k in ks]

    per_block = _step_blocks(samples, seed, one_block)
    return [_binomial(sum(row), samples) for row in zip(*per_block)]


def mc_rho(k_max: int, samples: int, seed: int = 0) -> List[McResult]:
    """Fraction of trials whose maximum digit among k draws is unique.

    Returns one result per k = 1..k_max; row i is k = i + 1.  Each block
    draws one digit per trial and step, into one buffer, so row k does not
    depend on k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_samples(samples, 100)

    def digit_steps(stream: RngStream, n: int) -> Iterator[np.ndarray]:
        d = np.empty(n)
        for _ in range(k_max):
            yield stream.luroth_digits(n, out=d)

    return _unique_max_table(samples, seed, digit_steps, range(1, k_max + 1))


def _finite_product(c: float, k: int) -> bool:
    """Whether c*k is a finite float; False too for a k no float can hold."""
    try:
        return math.isfinite(c * k)
    except OverflowError:
        return False


def mc_max_scaled_cdf(k: int, cs: Sequence[float], samples: int, seed: int = 0
                      ) -> List[McResult]:
    """Estimates of P(max of k digits < c*k), the scaled-maximum CDF, per c.

    The event max/k < c is max <= ceil(c*k) - 1 on integers, so each estimate
    targets the exact finite-k value (1 - 1/ceil(c*k))^k.  One pass draws
    each trial's maximum once for the whole c-grid, with the law of the
    largest of k digits but from one raw word (``RngStream.luroth_row_maxima``).
    ``_step_blocks`` runs blocks of _RHO_BLOCK trials; block b draws its
    trials from stream b, in order, and returns its integer counts per
    threshold, which are summed in block order.  So no more than a block of
    maxima per worker is held at once, whatever the sample count.
    """
    cs = list(cs)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not all(c > 0 and _finite_product(c, k) for c in cs):
        raise ValueError("c must be positive, with c*k finite")
    _check_samples(samples, 100)
    # digits lie in [1, 2^53], so clamping the threshold there changes no
    # count, and a double holds the clamped integer exactly
    thresholds = [float(min(max(math.ceil(c * k) - 1, 0), 1 << 53)) for c in cs]

    def one_block(stream: RngStream, n: int) -> List[int]:
        maxima = stream.luroth_row_maxima(n, k)
        return [int(np.count_nonzero(maxima <= t)) for t in thresholds]

    per_block = _step_blocks(samples, seed, one_block)
    return [_binomial(sum(counts), samples) for counts in zip(*per_block)]


def mc_trimmed_trajectory(checkpoints: Sequence[int], seed: int = 0) -> List[Tuple[int, float]]:
    """(S_k - M_k)/(k log k) at each checkpoint k of one path, in law; natural log.

    S_k is the sum and M_k the largest of k i.i.d. digits.  The path draws
    the (S, M) of each stretch between two checkpoints, in checkpoint order,
    on stream 0 of the seed (``RngStream.luroth_sum_max``, which gives the
    bias and tail-map arguments), and adds them up in Python integers; so a
    checkpoint's value does not depend on later checkpoints.  No digit is
    reported.  The statistic is formed in floating point at each checkpoint.

    The last checkpoint may be at most 10^12.  The sampler's arithmetic holds
    to 2^52, but a path draws about k/2^10 tail words, some 10 s at 10^12 on
    a 2-core VM.
    """
    cps = list(checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps != sorted(set(cps)):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    if cps[-1] > 10**12:
        raise ValueError("checkpoints must be <= 10^12")
    stream = RngStream(seed)
    total = biggest = start = 0
    out = []
    for cp in cps:
        s, m = stream.luroth_sum_max(cp - start)
        total += s
        biggest = max(biggest, m)
        start = cp
        out.append((cp, float(total - biggest) / (cp * math.log(cp))))
    return out
