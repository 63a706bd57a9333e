"""Tests for the RNG streams and the Monte Carlo engine."""

import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from numpy.random import PCG64DXSM, SeedSequence

from luroth.expansion import digit, max_cdf_exact, pmf
from luroth.extrema import rho_exact
import luroth.rng
import luroth.simulation
from luroth.rng import RngStream, _to_digits
from luroth.simulation import (
    _MATRIX_DRAW_BUDGET,
    _exact_sum_u64,
    _ordered_map,
    _sum_and_max,
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


def _first_low_word(seed, index):
    """The first word of the child stream that luroth_row_maxima reads low words from."""
    stream = RngStream(seed, index)
    stream.luroth_row_maxima(0, 1)  # opens the child stream and draws nothing
    return int(stream._lows.random_raw(1)[0])


def test_distinct_keys_give_distinct_first_words():
    # SeedSequence mixes seed and stream index apart, so swapping them, as in
    # (0, 1) and (1, 0), gives another stream; each stream's child stream of
    # low words is another stream again
    keys = [(s, b) for s in (0, 1, 2, 7, (1 << 64) - 1) for b in (0, 1, 2, 7, (1 << 32) - 1)]
    firsts = {int(RngStream(s, b).raw64(1)[0]) for s, b in keys}
    firsts |= {_first_low_word(s, b) for s, b in keys}
    assert len(firsts) == 2 * len(keys)


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
    with pytest.raises(ValueError):  # its own key would be the child key of stream 0
        RngStream(0, 1 << 32)


def test_uniforms_in_half_open_interval():
    u = RngStream(0, 0).uniforms(200000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


class _RawFeed:
    """Stands in for the stream generators: serves fixed raw words in order.

    ``random`` maps them to doubles as numpy's generators do, (w >> 11) 2^-53,
    so a stream fed through it reads the words as the real one would.
    """

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

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


def _fed_row_stream(prefix_words, lows):
    """A stream whose row maxima draw the given words from stubs.

    prefix_words are the stream's own words and lows its child stream's.
    Returns the stream and the child stream's feed.
    """
    stream = _fed_stream(prefix_words)
    stream._lows = _RawFeed(lows)
    return stream, stream._lows


def _pack(lanes):
    """Raw words whose 16-bit lanes, lowest bits first, are the given lanes."""
    lanes = list(lanes) + [0] * (-len(lanes) % 4)  # padding lanes hold 0
    return [sum(lanes[i + j] << (16 * j) for j in range(4)) for i in range(0, len(lanes), 4)]


def _row_maxima_reference(seed, index, n, k):
    """luroth_row_maxima(n, k) of stream (seed, index), in plain Python on raw words.

    Also returns the tie counts c of the rows.  luroth_row_maxima reads each
    row's c low words as the next c words of the stream's child stream, in
    row order.
    """
    q = -(-k // 4)
    words = PCG64DXSM(SeedSequence(seed, spawn_key=(index,))).random_raw(n * q).tolist()
    lows = PCG64DXSM(SeedSequence(seed, spawn_key=(index, 1)))
    maxima, counts = [], []
    for r in range(n):
        lanes = [(w >> (16 * j)) & 0xFFFF for w in words[r * q:(r + 1) * q] for j in range(4)][:k]
        h = min(lanes)
        c = lanes.count(h)
        low = lows.random_raw(c).tolist()
        maxima.append(_digit_of_word((h << 48) | (min(low) >> 16)))
        counts.append(c)
    return maxima, counts


def test_row_maxima_of_extreme_raw_words():
    # k = 3: one prefix word per row, its top lane padding.  Row 0 has the
    # least word 0 (digit 2^53), row 1 ties all three prefixes at 2^16 - 1
    # with all-ones low words (word 2^64 - 1, digit 1) and a padding lane 0
    # below them, row 2 joins prefix 7 to low part 5 << 44
    top = (1 << 64) - 1
    stream, feed = _fed_row_stream(
        _pack([5, 0, 9, 0] + [0xFFFF] * 3 + [0] + [7, 8, 8, 0]),
        [0, top, top, top, 5 << 60])
    maxima = stream.luroth_row_maxima(3, 3)
    assert maxima.dtype == np.float64
    assert maxima.tolist() == [1 << 53, 1, _digit_of_word((7 << 48) | (5 << 44))]
    assert feed.used == 5
    assert stream._bg.used == 3


def test_row_maxima_tie_counts_and_words_per_row():
    # k = 5: two prefix words per row, three padding lanes of 0 that must not
    # count.  Rows 0-3 have c = 1, 2, 3 and 2 (a tie at prefix 0); each row
    # reads its c low words in turn, the least one not first.  The low words
    # differ in their top bits, so that each one gives its row another digit
    k = 5
    rows = [[9, 4, 7, 8, 6], [3, 8, 3, 9, 5], [2, 2, 7, 2, 9], [0, 5, 0, 1, 1]]
    lows = [5 << 60, 9 << 60, 4 << 60, 8 << 60, 6 << 60, 3 << 60, 7 << 60, (2 << 60) + 0xFFFF]
    prefix_words = [w for lanes in rows for w in _pack(lanes)]
    want = [_digit_of_word((h << 48) | (l << 44)) for h, l in ((4, 5), (3, 4), (2, 3), (0, 2))]
    stream, feed = _fed_row_stream(prefix_words, lows)
    assert stream.luroth_row_maxima(4, k).tolist() == want
    # ceil(k/4) + c words per row
    assert stream._bg.used == 4 * 2
    assert feed.used == 1 + 2 + 3 + 2
    # two calls draw what one call does: the second call goes on from the
    # low word where the first one stopped
    stream, feed = _fed_row_stream(prefix_words, lows)
    assert stream.luroth_row_maxima(2, k).tolist() == want[:2]
    assert feed.used == 1 + 2
    assert stream.luroth_row_maxima(2, k).tolist() == want[2:]
    assert feed.used == len(lows)


def test_row_maxima_count_ties_past_255():
    # k = 300: row 0 ties 257 prefixes at 0, a count that wraps to 1 in uint8,
    # and must still read 257 low words, the least one last, before row 1's
    k = 300
    row0 = [(45 + i) << 40 for i in range(256, -1, -1)]
    stream, feed = _fed_row_stream(
        _pack([0] * 257 + [1] * 43) + _pack([4] + [6] * 299), row0 + [3 << 60])
    assert stream.luroth_row_maxima(2, k).tolist() == [
        _digit_of_word(45 << 24), _digit_of_word((4 << 48) | (3 << 44))]
    assert feed.used == 258


def test_row_maxima_open_one_child_stream_per_stream(monkeypatch, cores):
    # k = 1000 ties about 0.75 % of its rows, yet a stream opens its child
    # stream once, also across calls and in each block of mc_max_scaled_cdf;
    # the spy records the key of every stream and child stream opened
    real = luroth.rng.SeedSequence
    opened = []

    def spy(seed, spawn_key):
        opened.append((seed, spawn_key))
        return real(seed, spawn_key=spawn_key)

    monkeypatch.setattr(luroth.rng, "SeedSequence", spy)
    k, n = 1000, 2400
    stream = RngStream(6, k)
    stream.luroth_row_maxima(n // 2, k)
    stream.luroth_row_maxima(n - n // 2, k)
    assert opened == [(6, (k,)), (6, (k, 1))]
    assert max(_row_maxima_reference(6, k, 200, k)[1]) > 1
    opened.clear()
    cores(2)
    mc_max_scaled_cdf(k, [1.0], 9001, seed=2)  # blocks of 4194, 4194 and 613
    assert sorted(opened) == [(2, key) for b in range(3) for key in ((b,), (b, 1))]


def test_row_maxima_low_words_are_independent_of_own_words():
    # the i-th own word and the i-th low word the row maxima read: each of
    # the 64 bits of their XOR is 1 with probability 1/2, within 5 SE at
    # 2^16 pairs.  At k = 1 a row reads one own word and one low word
    n = 1 << 16
    for seed, index in ((5, 7), (0, 0)):
        own = RngStream(seed, index).raw64(n)
        stream = RngStream(seed, index)
        stream.luroth_row_maxima(0, 1)  # opens the child stream
        child, lows = stream._lows, []

        class Recorder:
            def random_raw(self, m):
                out = child.random_raw(m)
                lows.append(out.copy())
                return out

        stream._lows = Recorder()
        stream.luroth_row_maxima(n, 1)
        low = np.concatenate(lows)
        assert low.size == n
        xor = own ^ low
        freq = np.array([np.count_nonzero((xor >> np.uint64(b)) & np.uint64(1))
                         for b in range(64)]) / n
        assert np.abs(freq - 0.5).max() < 5 * 0.5 / math.sqrt(n), (seed, index)


def test_row_maxima_match_python_reference():
    # k = 1000 and 2^18 + 1 have tied rows; at 2^18 + 1 a chunk holds less
    # than one row.  k = 1 never ties, and k = 2 rarely does, so their
    # chunks OR in the low words without counting ties
    for k, n in ((1, 3000), (2, 3000), (3, 3000), (4, 3000), (5, 3000), (1000, 400),
                 (2**18 + 1, 3)):
        want, counts = _row_maxima_reference(6, k, n, k)
        got = RngStream(6, k).luroth_row_maxima(n, k)
        assert got.dtype == np.float64
        assert got.tolist() == want
        if k >= 1000:
            assert max(counts) > 1


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
        _, p, _, _ = scipy.stats.chi2_contingency(table)
        assert p > 1e-4, (k, p)


def test_row_maxima_do_not_depend_on_chunk_size(monkeypatch):
    # chunks from less than one row (ceil(1000/4) = 250 words) to several
    # rows, odd so that the last chunk is short, and one draw split in two
    for k, n in ((5, 3001), (1000, 1049)):
        want = RngStream(6, k).luroth_row_maxima(n, k)
        for chunk in (1, 249, 251, 999, 2**16 + 5):
            monkeypatch.setattr(luroth.rng, "_ROW_CHUNK", chunk)
            assert np.array_equal(RngStream(6, k).luroth_row_maxima(n, k), want)
            stream = RngStream(6, k)
            split = np.concatenate([stream.luroth_row_maxima(n // 3, k),
                                    stream.luroth_row_maxima(n - n // 3, k)])
            assert np.array_equal(split, want)


def test_max_scaled_cdf_counts_block_row_maxima():
    # one full block and a short last one of 3 trials, each drawn from its
    # own stream
    k = 1000
    full = _MATRIX_DRAW_BUDGET // k
    maxima = np.concatenate([RngStream(6, b).luroth_row_maxima(n, k)
                             for b, n in enumerate((full, 3))])
    got = mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], full + 3, seed=6)
    assert [r.estimate for r in got] == [
        int((maxima < math.ceil(c * k)).sum()) / (full + 3) for c in (0.5, 1.0, 2.0)]


def test_max_scaled_cdf_block_maxima_do_not_depend_on_workers(monkeypatch, cores):
    # the maxima each block draws, recorded by stream index; two blocks of
    # 4194 trials and a short third
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
        got = mc_max_scaled_cdf(1000, [0.5, 1.0, 2.0], 9001, seed=2)
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
    chi2, p = scipy.stats.chisquare(counts, np.array(probs) * n)
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
        many = _ordered_map(lambda s: mc_trimmed_trajectory(3000, [3000], seed=s), range(12))
    finally:
        sys.setswitchinterval(old)
    assert many == [mc_trimmed_trajectory(3000, [3000], seed=s) for s in range(12)]


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
    # digits 1..3 tie often; row k counts the trials whose maximum over the
    # first k digits is attained once
    n, depth = 5000, 6

    def steps(stream, size):
        return (stream.luroth_digits(size) % np.uint64(3) + np.uint64(1) for _ in range(depth))

    cores(1)
    table = _unique_max_table(n, 4, steps)
    rows = np.array([d.tolist() for d in steps(RngStream(4, 0), n)]).T.tolist()
    for k in range(1, depth + 1):
        unique = sum(row[:k].count(max(row[:k])) == 1 for row in rows)
        assert table[k - 1].estimate == unique / n


def test_mc_rho_validates():
    with pytest.raises(ValueError):
        mc_rho(0, 1000)
    with pytest.raises(ValueError):
        mc_rho(2, 50)


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
    # at k = 1000 a block holds 4194 trials: three full blocks and a short one
    sizes = ((50, 30000), (1000, 12599))
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
    with pytest.raises(ValueError):
        mc_max_scaled_cdf(0, [1.0], 1000)
    with pytest.raises(ValueError):
        mc_max_scaled_cdf(10, [1.0], 50)


# -------------------------------------------------------------- trajectory


def test_trajectory_k2_lower_bound():
    # (S_2 - M_2)/(2 log 2) = min(X1, X2)/(2 log 2) >= 1/(2 log 2)
    bound = 1.0 / (2 * math.log(2))
    for seed in range(20):
        (k, stat), = mc_trimmed_trajectory(2, [2], seed=seed)
        assert stat >= bound - 1e-15


def test_trajectory_deterministic():
    a = mc_trimmed_trajectory(10**4, [100, 10**4], seed=3)
    b = mc_trimmed_trajectory(10**4, [100, 10**4], seed=3)
    assert a == b


def test_trajectory_checkpoints_are_prefix_consistent():
    # a checkpoint's statistic does not depend on later checkpoints
    full = mc_trimmed_trajectory(10**4, [500, 10**4], seed=1)
    short = mc_trimmed_trajectory(500, [500], seed=1)
    assert full[0] == short[0]


def test_trajectory_does_not_depend_on_chunk_size(monkeypatch):
    cps = [10, 1000, 2**19 - 1, 2**19 + 3, 6 * 10**5]
    runs = []
    for chunk in (2**10, 2**16, 2**19):
        monkeypatch.setattr(luroth.simulation, "_TRAJ_CHUNK", chunk)
        runs.append(mc_trimmed_trajectory(6 * 10**5, cps, seed=9))
    assert runs[0] == runs[1] == runs[2]


def test_trajectory_with_extreme_words_does_not_depend_on_chunk_size(monkeypatch):
    # raw words 0 and 1 (the digit 2^53) inside chunks and at chunk edges
    # shift no later digit, so every chunk size reads the same path
    n = 6 * 10**5
    words = RngStream(9).raw64(n)
    for i, w in ((1500, 0), (2**16, 1), (2**16 + 7, 0), (2**19 - 1, 1), (5 * 10**5, 0)):
        words[i] = w
    cps = [10, 1000, 2**19 - 1, 2**19 + 3, n]
    runs = []
    for chunk in (2**10, 2**16, 2**19):
        feed = _RawFeed(words)
        _feed_new_streams(monkeypatch, feed)
        monkeypatch.setattr(luroth.simulation, "_TRAJ_CHUNK", chunk)
        runs.append(mc_trimmed_trajectory(n, cps, seed=9))
        assert feed.used == n
    assert runs[0] == runs[1] == runs[2]
    digits = [_digit_of_word(w) for w in words.tolist()]
    total, top = sum(digits), max(digits)
    assert top == 1 << 53
    assert runs[0][-1] == (n, float(total - top) / (n * math.log(n)))


def test_trajectory_against_exact_python_sums(monkeypatch):
    # several 2^10-digit chunks against one draw of the whole path, summed
    # as Python integers
    monkeypatch.setattr(luroth.simulation, "_TRAJ_CHUNK", 2**10)
    cps = [2, 1023, 1024, 1025, 5000]
    got = mc_trimmed_trajectory(5000, cps, seed=12)
    digits = [int(d) for d in RngStream(12).luroth_digits(5000)]
    assert got == [(k, float(sum(digits[:k]) - max(digits[:k])) / (k * math.log(k)))
                   for k in cps]


def test_trajectory_validates_checkpoints():
    with pytest.raises(ValueError):
        mc_trimmed_trajectory(100, [], seed=0)
    with pytest.raises(ValueError):
        mc_trimmed_trajectory(100, [3, 2], seed=0)
    with pytest.raises(ValueError):
        mc_trimmed_trajectory(100, [2, 200], seed=0)
    with pytest.raises(ValueError):
        mc_trimmed_trajectory(100, [1], seed=0)


def test_exact_sum_helper_against_python_sum():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
    a[0] = np.uint64(1 << 63)
    a[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    assert _exact_sum_u64(a) == sum(int(v) for v in a.tolist())


def test_sum_and_max_guard_branches(monkeypatch):
    split_calls = []

    def counted(a):
        split_calls.append(len(a))
        return _exact_sum_u64(a)

    monkeypatch.setattr(luroth.simulation, "_exact_sum_u64", counted)
    cases = [
        ([(1 << 51) - 1] * 4, False),  # max * n = 2^53 - 4
        ([1 << 52] * 2, False),        # max * n = 2^53: every partial sum a double
        ([1 << 53], False),
        ([(1 << 52) + 1] * 2, True),   # max * n = 2^53 + 2
        ([1 << 53, 1], True),          # the largest digit: a float sum rounds to 2^53
        ([(1 << 53) - 1, 2], True),    # 2^53 + 1 rounds to 2^53 in floats too
        ([1 << 53, 1 << 53, 7], True),
    ]
    for values, split in cases:
        split_calls.clear()
        total, top = _sum_and_max(np.array(values, dtype=np.float64))
        assert (total, top) == (sum(values), max(values))
        assert bool(split_calls) == split


def test_trajectory_against_python_reference(monkeypatch):
    # raw words 0 and 1 give the digit 2^53; they fall in the last chunk of
    # seven digits, whose sum exceeds 2^53 and so takes the exact uint64
    # sum, while the chunks before are small and summed in floats
    words = [10 << 11, 7 << 11, 1000 << 11, 5 << 11, 6 << 11, 77 << 11, 0, 19 << 11, 1, 2**40,
             2**64 - 5, 12 << 11]
    feed = _RawFeed(words)
    _feed_new_streams(monkeypatch, feed)
    split_calls = []

    def counted(a):
        split_calls.append(len(a))
        return _exact_sum_u64(a)

    monkeypatch.setattr(luroth.simulation, "_exact_sum_u64", counted)
    got = mc_trimmed_trajectory(12, [2, 5, 12], seed=0)
    digits = [_digit_of_word(w) for w in words]
    want = [(k, float(sum(digits[:k]) - max(digits[:k])) / (k * math.log(k)))
            for k in (2, 5, 12)]
    assert got == want
    assert feed.used == len(words)
    assert split_calls == [7]
