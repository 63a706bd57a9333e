"""Continued-fraction digit statistics under the Gauss measure.

Digits come from iterating the Gauss map x -> frac(1/x) in double precision
on points sampled from the invariant measure (CDF log2(1+x), so the inverse
transform is 2**u - 1).  CF digits are not independent, so every trial draws
a fresh starting point rather than slicing one long orbit.

Depth is capped at 40, but that cap is not a precision guarantee.  The map
stretches by about pi^2/(6 ln 2) ~ 3.4 bits per step (its Lyapunov
exponent), so the 53 bits of a double cover only about 15 digits: past depth
~15 the float digits are often not true digits of the sampled point, though
they still follow the Gauss-measure digit law closely.  An iterate that hits
exactly zero before enough digits are extracted aborts its trial, and
aborted trials must stay below 1e-6 of the total or the run fails loudly.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .rng import RngStream
from .simulation import McResult, _binomial, _blocked, _run_blocks

__all__ = [
    "CfSample",
    "cf_digit",
    "expand_cf",
    "gauss_step",
    "mc_cf_rho",
    "mc_cf_trimmed",
    "sample_gauss_measure",
]

LN2 = math.log(2.0)

_DEPTH_LIMIT = 40
_MIN_SAMPLES = 10**4
_ABORT_BUDGET = 1e-6
_DRAW_BUDGET = 1 << 22


@dataclass(frozen=True)
class CfSample:
    """A starting point and the CF digits extracted from it."""

    seed_point: float
    digits: Tuple[int, ...]


def cf_digit(x: float) -> int:
    """First continued-fraction digit floor(1/x) for x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    return int(1.0 / x)


def gauss_step(x: float) -> float:
    """One Gauss-map step: the fractional part of 1/x."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    inv = 1.0 / x
    return inv - math.floor(inv)


def sample_gauss_measure(u: float) -> float:
    """Inverse-CDF transform 2**u - 1 of the Gauss measure."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    return math.expm1(u * LN2)


def expand_cf(x: float, k: int) -> CfSample:
    """Up to k CF digits of x by float Gauss-map iteration.

    Stops early (shorter digit tuple) if an iterate hits exactly zero, which
    happens for rationals whose expansion terminates.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _DEPTH_LIMIT:
        raise ValueError("k above the depth cap %d" % _DEPTH_LIMIT)
    seed_point = x
    digits = []
    for _ in range(k):
        if not 0.0 < x < 1.0:
            break
        inv = 1.0 / x
        a = math.floor(inv)
        digits.append(int(a))
        x = inv - a
    if not digits:
        raise ValueError("x must lie in (0, 1)")
    return CfSample(seed_point, tuple(digits))


def _cf_trial_blocks(k: int, samples: int, seed: int, workers: int, reducer):
    """Common block driver: iterate the map on a lane per trial, hand the
    per-step digit arrays to ``reducer`` via a small state machine."""
    sizes = _blocked(samples, max(1, _DRAW_BUDGET // k))

    def one_block(b):
        n = sizes[b]
        stream = RngStream(seed, b)
        x = np.expm1(stream.uniforms(n) * LN2)
        alive = np.ones(n, dtype=bool)
        aborted = np.zeros(n, dtype=bool)
        state = reducer.init(n)
        for step in range(k):
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(alive, 1.0 / x, 1.0)
            a = np.floor(inv)
            reducer.step(state, a, alive)
            x = inv - a
            if step < k - 1:
                dying = alive & ((x <= 0.0) | ~np.isfinite(x))
                aborted |= dying
                alive &= ~dying
        return reducer.finish(state, aborted)

    return _run_blocks(len(sizes), one_block, workers)


class _UniqueMaxReducer:
    def init(self, n):
        return {
            "maxa": np.zeros(n), "count": np.zeros(n, dtype=np.int64),
        }

    def step(self, state, a, alive):
        greater = (a > state["maxa"]) & alive
        equal = (a == state["maxa"]) & alive
        state["count"] = np.where(greater, 1, state["count"] + equal)
        np.copyto(state["maxa"], a, where=greater)

    def finish(self, state, aborted):
        ok = ~aborted
        return int(((state["count"] == 1) & ok).sum()), int(aborted.sum())


class _TrimmedReducer:
    def __init__(self, k):
        self.k = k

    def init(self, n):
        return {"total": np.zeros(n), "maxa": np.zeros(n)}

    def step(self, state, a, alive):
        state["total"] += np.where(alive, a, 0.0)
        np.maximum(state["maxa"], np.where(alive, a, 0.0), out=state["maxa"])

    def finish(self, state, aborted):
        norm = self.k * math.log(self.k)
        stats = (state["total"] - state["maxa"]) / norm
        return stats[~aborted], int(aborted.sum())


def _check_aborts(aborted: int, samples: int):
    if aborted > _ABORT_BUDGET * samples:
        raise RuntimeError(
            "%d of %d trials hit a terminating iterate; the float pipeline "
            "is not trustworthy at this depth" % (aborted, samples)
        )


def mc_cf_rho(k: int, samples: int, seed: int = 0, workers: int = 1) -> McResult:
    """Probability (under the Gauss measure) that max(a_1..a_k) is unique."""
    if not 1 <= k <= _DEPTH_LIMIT:
        raise ValueError("k must lie in [1, %d]" % _DEPTH_LIMIT)
    if samples < _MIN_SAMPLES:
        raise ValueError("samples must be >= %d" % _MIN_SAMPLES)
    parts = _cf_trial_blocks(k, samples, seed, workers, _UniqueMaxReducer())
    successes = sum(p[0] for p in parts)
    aborted = sum(p[1] for p in parts)
    _check_aborts(aborted, samples)
    return _binomial(successes, samples - aborted, seed)


def mc_cf_trimmed(k: int, samples: int, seed: int = 0, workers: int = 1) -> McResult:
    """Median of (sum - max)/(k log k) of CF digits over fresh-start trials.

    The reported standard error is the per-trial sample std over sqrt(n)
    (the result contract's definition); for these heavy-tailed statistics it
    is a dispersion diagnostic, not a median confidence radius.
    """
    if not 2 <= k <= _DEPTH_LIMIT:
        raise ValueError("k must lie in [2, %d]" % _DEPTH_LIMIT)
    if samples < _MIN_SAMPLES:
        raise ValueError("samples must be >= %d" % _MIN_SAMPLES)
    parts = _cf_trial_blocks(k, samples, seed, workers, _TrimmedReducer(k))
    stats = np.concatenate([p[0] for p in parts])
    aborted = sum(p[1] for p in parts)
    _check_aborts(aborted, samples)
    est = float(np.median(stats))
    se = float(np.std(stats, ddof=1) / math.sqrt(len(stats)))
    return McResult(est, se, len(stats), seed)
