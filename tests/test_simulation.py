"""Tests for the RNG streams and the Monte Carlo engine."""

import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import chdtrc

from luroth.contfrac import mc_cf_rho_table, mc_cf_trimmed_table
from luroth.expansion import digit, max_cdf_exact, pmf
from luroth.extrema import rho_exact
import luroth.rng
import luroth.simulation
from luroth.rng import RngStream, _to_digits
from luroth.simulation import (
    _RHO_BLOCK,
    _ordered_map,
    _unique_max_table,
    mc_max_scaled_cdf,
    mc_rho,
    mc_trimmed_trajectory,
)


# ------------------------------------------------------------------ streams


def test_stream_is_reproducible():
    a = RngStream(11, 3).raw64(64)
    b = RngStream(11, 3).raw64(64)
    assert np.array_equal(a, b)


def test_streams_differ_by_index_and_seed():
    base = RngStream(11, 0).raw64(64)
    assert not np.array_equal(base, RngStream(11, 1).raw64(64))
    assert not np.array_equal(base, RngStream(12, 0).raw64(64))


def test_distinct_keys_give_distinct_first_words():
    # SeedSequence mixes seed and stream index apart, so swapping them, as in
    # (0, 1) and (1, 0), gives another stream
    keys = [(s, b) for s in (0, 1, 2, 7, (1 << 64) - 1) for b in (0, 1, 2, 7, (1 << 32) - 1)]
    firsts = {int(RngStream(s, b).raw64(1)[0]) for s, b in keys}
    assert len(firsts) == len(keys)


def test_stream_draws_are_position_pure():
    # drawing in two chunks equals drawing at once: no hidden state beyond the position
    s1 = RngStream(5, 7)
    chunks = np.concatenate([s1.raw64(10), s1.raw64(22)])
    assert np.array_equal(chunks, RngStream(5, 7).raw64(32))


def test_stream_validates_key_range():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)
    with pytest.raises(ValueError):  # more than one 32-bit key word
        RngStream(0, 1 << 32)


def test_uniforms_in_half_open_interval():
    u = RngStream(0, 0).uniforms(200000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


class _RawFeed:
    """Stands in for the stream generators: serves fixed raw words in order.

    ``random`` maps them to doubles as numpy's generators do, (w >> 11) 2^-53,
    so a stream fed through it reads the words as the real one would;
    ``multinomial`` serves preset counts.
    """

    def __init__(self, words, counts=()):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0
        self.counts = list(counts)

    def multinomial(self, n, pvals):
        # serves the next preset counts, which must fit the call
        counts = self.counts.pop(0)
        assert len(counts) == len(pvals) and sum(counts) == n
        return np.array(counts, dtype=np.int64)

    def random_raw(self, n):
        assert self.used + n <= len(self.words), "stub ran out of words"
        out = self.words[self.used:self.used + n].copy()
        self.used += n
        return out

    def random(self, size=None, out=None):
        if out is not None:
            assert size in (None, out.size)
            size = out.size
        u = (self.random_raw(size) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        if out is None:
            return u
        out[...] = u
        return out


def _fed_stream(words):
    stream = RngStream(0, 0)
    stream._bg = stream._gen = _RawFeed(words)
    return stream


def _feed_new_streams(monkeypatch, feed):
    """Every RngStream made from here on draws its own words from feed."""
    monkeypatch.setattr(luroth.rng, "PCG64DXSM", lambda seq: feed)
    monkeypatch.setattr(luroth.rng, "Generator", lambda bg: bg)


def _digit_of_word(w):
    return (1 << 53) // ((w >> 11) + 1)


def test_uniforms_extreme_raw_words_stay_inside():
    # the smallest and largest raw words map to the ends of the grid
    stream = _fed_stream([0, (1 << 64) - 1])
    u = stream.uniforms(2)
    assert u.tolist() == [2.0**-53, 1.0]


def test_uniforms_match_the_float_formula():
    # numpy's doubles against ((raw >> 11) + 1) 2^-53 of a twin stream
    raw = RngStream(8, 1).raw64(10**5)
    want = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    got = RngStream(8, 1).uniforms(10**5)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_uniforms_lie_on_the_grid():
    u = RngStream(4, 2).uniforms(4096)
    frac, whole = np.modf(u * 2.0**53)
    assert np.all(frac == 0.0)
    assert whole.min() >= 1.0


def test_draws_split_in_two_calls_and_into_buffers_agree():
    # two calls of 10 and 22 draw what one call of 32 draws, and a draw
    # into a caller's buffer equals a fresh one, buffer returned
    for method in ("uniforms", "luroth_digits"):
        want = getattr(RngStream(5, 7), method)(32)
        stream = RngStream(5, 7)
        split = np.concatenate([getattr(stream, method)(10), getattr(stream, method)(22)])
        assert np.array_equal(split, want), method
        buf = np.full(40, -1.0)
        stream = RngStream(5, 7)
        first = getattr(stream, method)(10, out=buf[:10])
        rest = getattr(stream, method)(22, out=buf[10:32])
        assert np.shares_memory(first, buf) and np.shares_memory(rest, buf)
        assert np.array_equal(buf[:32], want), method
        assert np.all(buf[32:] == -1.0)


def test_digits_match_inverse_cdf_mapping():
    # the float digit path must agree with the exact digit of u = (j + 1) 2^-53
    s = RngStream(3, 1)
    raw = s.raw64(2000)
    digits = RngStream(3, 1).luroth_digits(2000)
    j = raw >> np.uint64(11)
    for jv, dv in zip(j[:200].tolist(), digits[:200].tolist()):
        assert dv == digit(Fraction(jv + 1, 1 << 53))


def test_float_digit_map_is_exact_at_the_integer_seams():
    # floor(fl(1/u)) against the integer 2^53 // (j + 1) at both ends of the
    # grid and at every cut N = floor(2^53 / m) - 1, N, N + 1 for m <= 3e5,
    # where a quotient lies closest to an integer
    cuts = np.uint64(1 << 53) // np.arange(1, 3 * 10**5 + 1, dtype=np.uint64)
    n = np.concatenate([np.array([1, 1 << 53], dtype=np.uint64), cuts - np.uint64(1), cuts,
                        cuts + np.uint64(1)])
    n = n[(n >= 1) & (n <= 1 << 53)]  # n = j + 1
    got = _to_digits(n.astype(np.float64) * 2.0**-53)
    want = np.uint64(1 << 53) // n
    assert np.array_equal(got, want.astype(np.float64))
    assert got[0] == 2.0**53 and got[1] == 1.0


# the extreme raw words: below 2^11 they give u = 2^-53, from 2^64 - 2^11 on
# u = 1
_EDGE_WORDS = [0, (1 << 11) - 1, 1 << 11, (1 << 12) - 1, (1 << 64) - (1 << 11), (1 << 64) - 1,
               1 << 63, 40 << 11, 9, 1000 << 11, 77 << 11, 12 << 11]


def test_digits_of_extreme_raw_words():
    stream = _fed_stream(_EDGE_WORDS)
    digits = stream.luroth_digits(len(_EDGE_WORDS))
    assert digits.dtype == np.float64
    # the cap 2^53 at u = 2^-53, and the digit 1 at u = 1
    assert digits.tolist()[:6] == [1 << 53, 1 << 53, 1 << 52, 1 << 52, 1, 1]
    assert digits.tolist() == [_digit_of_word(w) for w in _EDGE_WORDS]
    assert stream._bg.used == len(_EDGE_WORDS)  # one word per digit, no redraw


def test_row_maxima_of_extreme_raw_words():
    # u = 1, from the largest words, gives t = 0, snapped up to 2^-53: the
    # cap 2^53 at every k; u = 2^-53, from the smallest, gives t = 1 at k = 1:
    # the digit 1.  A larger word never gives a smaller maximum, each row
    # reads one word, log(u) raises no warning, and two calls draw what one
    # call does
    order = sorted(range(len(_EDGE_WORDS)), key=lambda i: _EDGE_WORDS[i])
    for k in (1, 1000):
        stream = _fed_stream(_EDGE_WORDS)
        maxima = stream.luroth_row_maxima(len(_EDGE_WORDS), k)
        assert maxima.dtype == np.float64
        assert stream._bg.used == len(_EDGE_WORDS)
        assert maxima[4] == maxima[5] == 2.0**53
        assert np.all(np.diff(maxima[order]) >= 0), k
        assert np.all((maxima >= 1) & (maxima == np.floor(maxima)))
        stream = _fed_stream(_EDGE_WORDS)
        split = np.concatenate([stream.luroth_row_maxima(5, k),
                                stream.luroth_row_maxima(len(_EDGE_WORDS) - 5, k)])
        assert np.array_equal(split, maxima), k
        if k == 1:
            assert maxima[0] == maxima[1] == 1.0


def test_row_maxima_match_python_reference():
    # against t = 1 - u^(1/k) of each word's u at 50 digits, snapped up to the
    # grid index j: log, the division and expm1 move t by a few ulps, each at
    # most a grid step, so the maximum lies between the digits of j + 8 and
    # j - 8.  At k = 1000 that band is narrower than one digit
    for k in (1, 2, 5, 1000, 2**18 + 1):
        raw = RngStream(6, k).raw64(400).tolist()
        got = RngStream(6, k).luroth_row_maxima(400, k).tolist()
        with mpmath.workdps(50):
            for w, d in zip(raw, got):
                u = mpmath.mpf((w >> 11) + 1) / 2**53
                j = max(int(mpmath.ceil((1 - u ** (mpmath.mpf(1) / k)) * 2**53)), 1)
                assert (1 << 53) // (j + 8) <= d <= (1 << 53) // max(j - 8, 1), (k, w)


def contingency_pvalue(table):
    """scipy.stats.chi2_contingency's p-value: Pearson's statistic against the
    product of the margins, on (rows - 1)(columns - 1) degrees of freedom, with
    no Yates correction (every table here has at least 3 columns)."""
    table = np.asarray(table, dtype=np.float64)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return chdtrc(dof, np.sum((table - expected) ** 2 / expected))


def test_row_maxima_law_matches_digit_matrix():
    # a chi-square test of homogeneity against the maxima of digit matrices,
    # 20000 rows each, in 12 bins of near-equal exact probability; the gate
    # is significance 1e-4 at this fixed seed
    n = 20000
    for k in (1, 5, 1000):
        fast = RngStream(7, k).luroth_row_maxima(n, k)
        digits = RngStream(8, k)
        slow = np.concatenate([digits.luroth_digits(1000 * k).reshape(1000, k).max(axis=1)
                               for _ in range(n // 1000)])
        # P(max <= m) = (m / (m + 1))^k: edges at its 1/12, 2/12, ... quantiles
        edges = sorted({math.ceil(1 / (1 - (i / 12) ** (1 / k))) for i in range(1, 12)})
        table = [np.bincount(np.searchsorted(edges, x.astype(np.float64), side="right"),
                             minlength=len(edges) + 1) for x in (fast, slow)]
        p = contingency_pvalue(table)
        assert p > 1e-4, (k, p)


def test_row_maxima_law_matches_max_cdf_exact():
    # 2^18 rows each against P(max <= m) = (m / (m + 1))^k at about its 0.1,
    # 0.3, 0.5, 0.7 and 0.9 quantiles, within 4.5 SE at this fixed seed; k up
    # to 10^4, far past the digit matrices
    n = 1 << 18
    for k in (2, 50, 10**4):
        maxima = RngStream(9, k).luroth_row_maxima(n, k)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = math.ceil(1 / (1 - q ** (1 / k)))
            p = float(max_cdf_exact(k, m))
            z = (np.count_nonzero(maxima <= m) / n - p) / math.sqrt(p * (1 - p) / n)
            assert abs(z) < 4.5, (k, m, z)


def test_max_scaled_cdf_counts_block_row_maxima():
    # two full blocks and a short last one, each drawn from its own stream
    k, samples = 1000, 70001
    sizes = (_RHO_BLOCK, _RHO_BLOCK, samples - 2 * _RHO_BLOCK)
    maxima = np.concatenate([RngStream(6, b).luroth_row_maxima(n, k)
                             for b, n in enumerate(sizes)])
    got = mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], samples, seed=6)
    assert [r.estimate for r in got] == [
        int((maxima < math.ceil(c * k)).sum()) / samples for c in (0.5, 1.0, 2.0)]


def test_max_scaled_cdf_holds_a_block_of_maxima(cores):
    # each worker holds one block's maxima and its comparison, not all 10^6
    cores(2)
    mc_max_scaled_cdf(1000, [0.5, 1.0, 2.0], 10**6)
    tracemalloc.start()
    try:
        mc_max_scaled_cdf(1000, [0.5, 1.0, 2.0], 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_row_maxima_open_no_child_stream(monkeypatch, cores):
    # a stream's row maxima read its own words only, also across calls, and
    # each block of mc_max_scaled_cdf opens its own stream and no other; the
    # spy records the key of every stream opened
    real = luroth.rng.SeedSequence
    opened = []

    def spy(seed, spawn_key):
        opened.append((seed, spawn_key))
        return real(seed, spawn_key=spawn_key)

    monkeypatch.setattr(luroth.rng, "SeedSequence", spy)
    stream = RngStream(6, 1000)
    stream.luroth_row_maxima(1200, 1000)
    stream.luroth_row_maxima(1200, 1000)
    assert opened == [(6, (1000,))]
    opened.clear()
    cores(2)
    mc_max_scaled_cdf(1000, [1.0], 70001, seed=2)
    assert sorted(opened) == [(2, (b,)) for b in range(3)]


def test_max_scaled_cdf_block_maxima_do_not_depend_on_workers(monkeypatch, cores):
    # the maxima each block draws, recorded by stream index; two blocks of
    # _RHO_BLOCK trials and a short third
    real = RngStream.luroth_row_maxima
    seen = {}

    def spy(stream, n, k):
        out = real(stream, n, k)
        seen[stream.stream_index] = out.tolist()
        return out

    monkeypatch.setattr(RngStream, "luroth_row_maxima", spy)
    runs = []
    for n in (1, 2, 3):
        seen.clear()
        cores(n)
        got = mc_max_scaled_cdf(1000, [0.5, 1.0, 2.0], 70001, seed=2)
        runs.append((got, dict(seen)))
    assert sorted(runs[0][1]) == [0, 1, 2]
    assert runs[0] == runs[1] == runs[2]


def test_digits_are_positive():
    d = RngStream(1, 0).luroth_digits(100000)
    assert int(d.min()) >= 1


def test_digit_one_frequency():
    d = RngStream(2, 0).luroth_digits(10**6)
    freq = float((d == 1).mean())
    se = math.sqrt(0.5 * 0.5 / 10**6)
    assert abs(freq - 0.5) <= 3 * se


def test_digit_chi_square_gof():
    # digits 1..50 with the tail pooled, significance 1e-4
    n = 10**6
    d = RngStream(9, 0).luroth_digits(n)
    capped = np.minimum(d, np.uint64(51))
    counts = np.bincount(capped.astype(np.int64), minlength=52)[1:]
    probs = [float(pmf(m)) for m in range(1, 51)] + [1.0 / 51]
    expected = np.array(probs) * n
    p = chdtrc(counts.size - 1, np.sum((counts - expected) ** 2 / expected))
    assert p > 1e-4


# ------------------------------------------------------------- worker pool


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls")
def test_ordered_map_keeps_order_and_binds_only_its_workers(cores):
    mask = os.sched_getaffinity(0)
    cores(3)
    got = _ordered_map(lambda x: (x, os.sched_getaffinity(0)), range(40))
    assert [x for x, _ in got] == list(range(40))
    assert all(len(cpus) == 1 and cpus <= mask for _, cpus in got)
    assert os.sched_getaffinity(0) == mask


def test_ordered_map_under_fast_thread_switches(cores):
    # more workers than cores, and a thread switch every microsecond
    cores(5)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _ordered_map(lambda s: mc_trimmed_trajectory([3000], seed=s), range(12))
    finally:
        sys.setswitchinterval(old)
    assert many == [mc_trimmed_trajectory([3000], seed=s) for s in range(12)]


def test_ordered_map_starts_no_more_threads_than_items(monkeypatch, cores):
    # 8 cores and 3 items: 3 threads start, and 3 run the items
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    cores(8)
    idents = _ordered_map(lambda x: threading.get_ident(), range(3))
    assert len(started) == 3
    assert len(set(idents)) <= 3


def test_ordered_map_reraises_first_failing_item(cores):
    # item 6 fails first in time and item 5 after it; the caller must get
    # item 5's exception, as from the serial loop, with no worker left behind
    six_failed = threading.Event()

    def fn(x):
        if x == 5:
            assert six_failed.wait(30)
            raise ValueError("item 5")
        if x == 6:
            six_failed.set()
            raise KeyError("item 6")
        return x

    threads_before = threading.active_count()
    outcome = []
    cores(3)

    def call():
        try:
            outcome.append(_ordered_map(fn, range(20)))
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "_ordered_map hung after a failing item"
    assert len(outcome) == 1
    assert type(outcome[0]) is ValueError and str(outcome[0]) == "item 5"
    assert threading.active_count() == threads_before


# ------------------------------------------------------------------ mc_rho


def test_mc_rho_k1_exact():
    [r] = mc_rho(1, 1000, seed=0)
    assert r.estimate == 1.0
    assert r.standard_error == 0.0


def test_mc_rho_matches_exact_formula():
    table = mc_rho(40, 10**6, seed=0)
    assert len(table) == 40
    for k in (2, 5, 10, 20, 40):
        r = table[k - 1]
        exact = float(rho_exact(k).value)
        assert abs(r.estimate - exact) <= 4 * r.standard_error


def test_mc_rho_deterministic_and_worker_independent(cores):
    a = mc_rho(3, 70000, seed=5)
    b = mc_rho(3, 70000, seed=5)
    cores(4)
    c = mc_rho(3, 70000, seed=5)
    assert a == b == c


def test_unique_max_table_against_python_count(cores):
    # digits 1..3 tie often; the result for k counts the trials whose maximum
    # over the first k digits is attained once, at every depth and at a few
    # depths asked for out of order and with a repeat
    n = 5000
    cores(1)
    for ks in (range(1, 7), [5, 2, 5]):
        def steps(stream, size):
            return (stream.luroth_digits(size) % np.uint64(3) + np.uint64(1)
                    for _ in range(max(ks)))

        table = _unique_max_table(n, 4, steps, ks)
        rows = np.array([d.tolist() for d in steps(RngStream(4, 0), n)]).T.tolist()
        assert len(table) == len(ks)
        for k, r in zip(ks, table):
            unique = sum(row[:k].count(max(row[:k])) == 1 for row in rows)
            assert r.estimate == unique / n


def test_mc_rho_validates():
    with pytest.raises(ValueError):
        mc_rho(0, 1000)
    with pytest.raises(ValueError):
        mc_rho(2, 50)


def test_samples_beyond_the_stream_keys_are_refused():
    # 2^32 trials, 2^17 blocks, are the most the worker pool sets aside result
    # slots for; the bound itself passes the check, which allocates nothing,
    # and every sampler refuses one more trial before it allocates
    luroth.simulation._check_samples(1 << 32, 100)
    for sampler in (lambda n: mc_rho(2, n), lambda n: mc_max_scaled_cdf(10, [1.0], n),
                    lambda n: mc_cf_rho_table([2], n), lambda n: mc_cf_trimmed_table([2], n)):
        with pytest.raises(ValueError, match=r"samples must be <= 2\^32"):
            sampler((1 << 32) + 1)


@pytest.mark.parametrize("samples", [2 * 10**5, 8 * 10**5])
def test_mc_rho_memory_is_three_block_arrays_per_worker(cores, samples):
    # nothing per trial: a block's counts, one int per row, are held to the
    # end; on top, per worker a block's three arrays (the digits, the running
    # maximum and runner-up), one numpy cast buffer of getbufsize() doubles,
    # and 256 KB for the rest
    cores(2)
    mc_rho(8, samples)
    tracemalloc.start()
    try:
        mc_rho(8, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = -(-samples // _RHO_BLOCK) * 8 * 64
    buffers = 3 * 8 * _RHO_BLOCK + 8 * np.getbufsize()
    assert peak < held + 2 * buffers + (256 << 10), peak


def test_mc_rho_rows_do_not_depend_on_k_max(cores):
    # 70001 is not a multiple of the block size, so the short last block
    # is checked too; each row must equal the last row of a run stopped there
    last = {k: mc_rho(k, 70001, seed=5)[-1] for k in (1, 3, 17, 40)}
    cores(3)
    table = mc_rho(40, 70001, seed=5)
    assert len(table) == 40
    for k, row in last.items():
        assert table[k - 1] == row


# ------------------------------------------------------------- max scaled


def test_mc_max_scaled_cdf_at_c1():
    [r] = mc_max_scaled_cdf(1000, [1.0], 10**5, seed=0)
    finite_k = float(max_cdf_exact(1000, 999))
    assert abs(r.estimate - finite_k) <= 4 * r.standard_error


def test_mc_max_scaled_cdf_at_c2():
    [r] = mc_max_scaled_cdf(1000, [2.0], 10**5, seed=0)
    finite_k = float(max_cdf_exact(1000, 1999))
    assert abs(r.estimate - finite_k) <= 4 * r.standard_error
    assert abs(finite_k - math.exp(-0.5)) < 5e-4  # the limit the law approaches


def test_mc_max_scaled_cdf_huge_c():
    [r] = mc_max_scaled_cdf(1000, [1e6], 10**4, seed=0)
    assert r.estimate >= 1.0 - 3e-4


def test_mc_max_scaled_cdf_tiny_c_zero():
    [r] = mc_max_scaled_cdf(3, [1e-9], 1000, seed=0)
    assert r.estimate == 0.0


def test_mc_max_scaled_cdf_deterministic(cores):
    # 70001 trials: two full blocks of _RHO_BLOCK and a short third
    sizes = ((50, 70001), (1000, 70001))
    a = [mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], samples, seed=2) for k, samples in sizes]
    cores(3)
    b = [mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], samples, seed=2) for k, samples in sizes]
    assert a == b


def test_mc_max_scaled_cdf_grid_rows_match_single_points(cores):
    # c = 0.1 puts the threshold ceil(0.3) - 1 = 0 below the smallest digit
    cs = [0.1, 1.0, 2.5]
    singles = [mc_max_scaled_cdf(3, [c], 50001, seed=4)[0] for c in cs]
    cores(2)
    grid = mc_max_scaled_cdf(3, cs, 50001, seed=4)
    assert len(grid) == 3
    assert grid[0].estimate == 0.0
    assert grid == singles


def test_mc_max_scaled_cdf_validates():
    for bad_c in (0.0, -1.0, math.inf, math.nan, 1e308):
        with pytest.raises(ValueError):
            mc_max_scaled_cdf(10, [1.0, bad_c], 1000)
    with pytest.raises(ValueError):  # k converts to no float
        mc_max_scaled_cdf(10**400, [1.0], 1000)
    with pytest.raises(ValueError):
        mc_max_scaled_cdf(0, [1.0], 1000)
    with pytest.raises(ValueError):
        mc_max_scaled_cdf(10, [1.0], 50)


# -------------------------------------------------------------- trajectory


def test_trajectory_k2_lower_bound():
    # (S_2 - M_2)/(2 log 2) = min(X1, X2)/(2 log 2) >= 1/(2 log 2)
    bound = 1.0 / (2 * math.log(2))
    for seed in range(20):
        (k, stat), = mc_trimmed_trajectory([2], seed=seed)
        assert stat >= bound - 1e-15


def test_trajectory_deterministic():
    a = mc_trimmed_trajectory([100, 10**4], seed=3)
    b = mc_trimmed_trajectory([100, 10**4], seed=3)
    assert a == b


def test_trajectory_checkpoints_are_prefix_consistent():
    # a checkpoint's statistic does not depend on later checkpoints
    full = mc_trimmed_trajectory([500, 10**4], seed=1)
    short = mc_trimmed_trajectory([500], seed=1)
    assert full[0] == short[0]


def _tail_bits(n):
    # L of a stretch of n digits, as luroth_sum_max chooses it
    return min(10, max(1, n.bit_length() // 2))


def _tail_digit(w, bits):
    # the tail digit floor((V + 1)/u) of the raw word w, V + 1 = 2^bits
    return (1 << (53 + bits)) // ((w >> 11) + 1)


def _tail_word(d, bits):
    # a raw word whose tail digit is d
    j = (1 << (53 + bits)) // d
    assert _tail_digit((j - 1) << 11, bits) == d
    return (j - 1) << 11


def _python_path(stretches, checkpoints):
    """The statistic at each checkpoint from (counts, tail words) per stretch,
    in Python integers: counts[v - 1] digits equal v, one more digit per word."""
    total = top = start = 0
    out = []
    for k, (counts, words) in zip(checkpoints, stretches):
        bits = _tail_bits(k - start)
        assert len(counts) == (1 << bits) - 1 and sum(counts) + len(words) == k - start
        tail = [_tail_digit(w, bits) for w in words]
        total += sum(v * c for v, c in enumerate(counts, 1)) + sum(tail)
        top = max([top] + tail + [v for v, c in enumerate(counts, 1) if c])
        start = k
        out.append((k, float(total - top) / (k * math.log(k))))
    return out


def test_trajectory_against_exact_python_sums():
    # against a twin of stream 0 of the seed: one multinomial over 1..V and
    # the tail per stretch, then the tail words, summed as Python integers;
    # V runs from 1 to 1023, and the last tail spans two chunks
    cps = [2, 3, 1023, 1024, 1025, 5000, 2**22, 2**27]
    gen = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(12, spawn_key=(0,))))
    stretches, start = [], 0
    for k in cps:
        bits = _tail_bits(k - start)
        pvals = [1 / (v * (v + 1)) for v in range(1, 1 << bits)] + [2.0**-bits]
        counts = gen.multinomial(k - start, pvals).tolist()
        stretches.append((counts[:-1], gen.bit_generator.random_raw(counts[-1]).tolist()))
        start = k
    assert len(stretches[-1][1]) > luroth.rng._TAIL_CHUNK
    assert mc_trimmed_trajectory(cps, seed=12) == _python_path(stretches, cps)


def test_trajectory_does_not_depend_on_chunk_size(monkeypatch):
    # tail words are drawn _TAIL_CHUNK at a time, never more; a stretch of
    # 2^28 digits has about 2^18 tail digits
    cps = [10, 1000, 2**21, 2**28]
    sizes = []
    real = RngStream.raw64
    monkeypatch.setattr(RngStream, "raw64", lambda stream, n: sizes.append(n) or real(stream, n))
    runs = []
    for chunk in (2**10, 2**16):
        monkeypatch.setattr(luroth.rng, "_TAIL_CHUNK", chunk)
        sizes.clear()
        runs.append(mc_trimmed_trajectory(cps, seed=9))
        assert max(sizes) <= chunk and sum(sizes) > 2 * chunk
    assert runs[0] == runs[1]


def test_stretch_tail_memory_is_one_chunk():
    # 2^28 digits have about 2^18 tail digits, 2 MiB of words if drawn at
    # once; a chunk of 2^16 words and its two 32-bit halves take 1.5 MiB
    mc_trimmed_trajectory([2**28], seed=4)
    tracemalloc.start()
    try:
        mc_trimmed_trajectory([2**28], seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * luroth.rng._TAIL_CHUNK + (256 << 10), peak


def test_trajectory_validates_checkpoints():
    with pytest.raises(ValueError):
        mc_trimmed_trajectory([], seed=0)
    with pytest.raises(ValueError):
        mc_trimmed_trajectory([3, 2], seed=0)
    with pytest.raises(ValueError):
        mc_trimmed_trajectory([1], seed=0)
    with pytest.raises(ValueError, match=r"<= 10\^12"):
        mc_trimmed_trajectory([10, 10**12 + 1], seed=0)


def _fed_path(monkeypatch, stretches, checkpoints):
    # the path with each stretch's counts and tail words served by _RawFeed
    counts = [c + [len(w)] for c, w in stretches]
    feed = _RawFeed([w for _, words in stretches for w in words], counts)
    _feed_new_streams(monkeypatch, feed)
    got = mc_trimmed_trajectory(checkpoints, seed=0)
    assert feed.used == len(feed.words) and not feed.counts
    return got


def test_trajectory_with_extreme_words_does_not_depend_on_chunk_size(monkeypatch):
    # raw words below 2^11 give the largest tail digit 2^63 at V = 1023, and
    # 2^64 - 1 the least, 1024; four of the former make a total above 2^64.
    # Placed at the edges of 16-word chunks, they give the same path at every
    # chunk size, and its Python-integer sums
    n = 1 << 20
    words = RngStream(9).raw64(40).tolist()
    for i, w in ((0, 0), (15, 1), (16, (1 << 64) - 1), (31, 2047), (32, 5), (39, (1 << 64) - 1)):
        words[i] = w
    counts = [0] * 1023
    counts[0], counts[1022] = n - 45, 5
    want = _python_path([(counts, words)], [n])
    runs = []
    for chunk in (16, 17, 2**16):
        monkeypatch.setattr(luroth.rng, "_TAIL_CHUNK", chunk)
        runs.append(_fed_path(monkeypatch, [(counts, words)], [n]))
    assert runs[0] == runs[1] == runs[2] == want
    assert sum(_tail_digit(w, 10) for w in words) > 1 << 64


@pytest.mark.parametrize("digits", [
    [1 << 52, (1 << 53) // 3, (1 << 53) // 6],  # 2^53 - 1
    [1 << 52, 1 << 52],                         # 2^53
    [1 << 53, 1],                               # 2^53 + 1: a float sum rounds to 2^53
    [1, 1 << 53],
    [1 << 53, 1 << 53, 7],
], ids=["2^53-1", "2^53", "2^53+1", "1+2^53", "2^54+7"])
def test_trajectory_sum_at_the_float_guard(digits, monkeypatch):
    # one stretch whose total is near 2^53, where float sums stop being
    # exact, against Python integers; at 2^53 + 1, S_k - M_k is 1, so a float
    # sum's rounding would show in the statistic.  With k <= 3, V = 1: the
    # digits 1 are counted and the others are tail digits, in their order
    k = len(digits)
    stretch = ([digits.count(1)], [_tail_word(d, 1) for d in digits if d > 1])
    got = _fed_path(monkeypatch, [stretch], [k])
    assert got == [(k, float(sum(digits) - max(digits)) / (k * math.log(k)))]
    assert got == _python_path([stretch], [k])


def test_trajectory_against_python_reference(monkeypatch):
    # three stretches, at V = 7, 1 and 15: the first with no tail, so M comes
    # from the counts, the second of tail digits only, from the raw words 0
    # and 2^64 - 5, the third mixed; each against Python integers
    cps = [38, 40, 300]
    mixed = [100, 50, 30, 20, 10, 5, 3, 2, 1, 0, 0, 1, 0, 0, 1]
    stretches = [([30, 5, 2, 0, 1, 0, 0], []),
                 ([0], [0, (1 << 64) - 5]),
                 ([260 - 2 - sum(mixed[1:])] + mixed[1:], [2**40, 12 << 11])]
    assert _fed_path(monkeypatch, stretches, cps) == _python_path(stretches, cps)


def test_multinomial_draws_sequential_binomials():
    # luroth_sum_max's bias argument reads Generator.multinomial as
    # c_j ~ Binomial(n - c_1 - ... - c_{j-1}, p_j / r_j), with r_j = 1 - p_1
    # - ... - p_{j-1} accumulated in floats, stopping once no trial is left,
    # the last category taking the rest; the counts and the generator's
    # state after the draw must match that loop on a twin generator
    def loop(gen, n, pvals):
        out = [0] * len(pvals)
        remaining, left = 1.0, n
        for j, p in enumerate(pvals[:-1]):
            out[j] = int(gen.binomial(left, p / remaining))
            left -= out[j]
            if left <= 0:
                break
            remaining -= p
        out[-1] += left
        return out

    for bits in (1, 3, 10):
        v = np.arange(1, 1 << bits)
        pvals = np.append(1.0 / (v * (v + 1.0)), 2.0**-bits)
        for n in (1, 2, 10, 1000, 10**6, 10**12):
            a, b = (np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(n + bits)))
                    for _ in range(2))
            assert a.multinomial(n, pvals).tolist() == loop(b, n, pvals), (bits, n)
            assert a.bit_generator.state == b.bit_generator.state, (bits, n)


def test_trajectory_law_matches_direct_draws():
    # S_k - M_k at k = 1000 from 4000 paths against 4000 rows of 1000 digits
    # drawn one by one: a chi-square test of homogeneity in 10 bins at the
    # pooled deciles; the gate is significance 1e-4 at these fixed seeds
    k, n = 1000, 4000
    scale = k * math.log(k)
    fast = np.rint([mc_trimmed_trajectory([k], seed=s)[0][1] * scale for s in range(n)])
    d = RngStream(1, 1).luroth_digits(n * k).reshape(n, k)
    slow = d.sum(axis=1) - d.max(axis=1)
    edges = np.unique(np.quantile(np.concatenate([fast, slow]), np.linspace(0.1, 0.9, 9)))
    table = [np.bincount(np.searchsorted(edges, x, side="left"), minlength=len(edges) + 1)
             for x in (fast, slow)]
    p = contingency_pvalue(table)
    assert p > 1e-4, (p, table)
