"""Tests for the RNG streams and the Monte Carlo engine."""

import math
import os
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from luroth.expansion import digit, max_cdf_exact, pmf
from luroth.extrema import rho_exact
import luroth.rng
import luroth.simulation
from luroth.rng import RngStream
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


def test_stream_draws_are_position_pure():
    # drawing in two chunks equals drawing at once: no hidden state beyond the counter
    s1 = RngStream(5, 7)
    chunks = np.concatenate([s1.raw64(10), s1.raw64(22)])
    assert np.array_equal(chunks, RngStream(5, 7).raw64(32))


def test_stream_validates_key_range():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


def test_uniforms_in_open_interval():
    u = RngStream(0, 0).uniforms(200000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniforms_extreme_raw_words_stay_inside(monkeypatch):
    # the smallest and largest raw words map to the end cells' centres
    stream = RngStream(0, 0)
    raw = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    monkeypatch.setattr(stream, "_bg", SimpleNamespace(random_raw=lambda n: raw[:n].copy()))
    u = stream.uniforms(2)
    assert u.tolist() == [2.0**-53, 1.0 - 2.0**-53]


def test_uniforms_match_the_float_formula(monkeypatch):
    # the in-place mantissa route against ((raw >> 12) + 1/2) 2^-52 in floats
    edges = [0, 1, (1 << 12) - 1, 1 << 12, 1 << 63, (1 << 64) - 1]
    raw = np.concatenate([np.array(edges, dtype=np.uint64), RngStream(8, 1).raw64(10**5)])
    stream = RngStream(0, 0)
    monkeypatch.setattr(stream, "_bg", SimpleNamespace(random_raw=lambda n: raw[:n].copy()))
    want = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * (2.0**-52)
    got = stream.uniforms(len(raw))
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_uniforms_are_exact_cell_centres():
    u = RngStream(4, 2).uniforms(4096)
    frac, _ = np.modf(u * 2.0**52)
    assert np.all(frac == 0.5)


def test_digits_match_inverse_cdf_mapping():
    # the integer digit path must agree with the exact digit of u = (j + 1) 2^-63
    s = RngStream(3, 1)
    raw = s.raw64(2000)
    digits = RngStream(3, 1).luroth_digits(2000)
    j = raw >> np.uint64(1)
    for jv, dv in zip(j[:200].tolist(), digits[:200].tolist()):
        assert dv == digit(Fraction(jv + 1, 1 << 63))


class _RawFeed:
    """Stands in for the Philox generator: serves fixed raw words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, n):
        assert self.used + n <= len(self.words), "stub ran out of words"
        out = self.words[self.used:self.used + n].copy()
        self.used += n
        return out


def _fed_stream(words):
    stream = RngStream(0, 0)
    stream._bg = _RawFeed(words)
    return stream


def _digit_of_word(w):
    return (1 << 63) // ((w >> 1) + 1)


# the extreme raw words: 0 and 1 give u = 2^-63, 2^64 - 2 and 2^64 - 1 give u = 1
_EDGE_WORDS = [0, 1, 2, 3, (1 << 64) - 2, (1 << 64) - 1, 1 << 63, 40, 9, 1000, 77, 12]


def test_digits_of_extreme_raw_words():
    stream = _fed_stream(_EDGE_WORDS)
    digits = stream.luroth_digits(len(_EDGE_WORDS))
    assert digits.dtype == np.uint64
    assert digits.tolist()[:6] == [1 << 63, 1 << 63, 1 << 62, 1 << 62, 1, 1]
    assert digits.tolist() == [_digit_of_word(w) for w in _EDGE_WORDS]
    assert stream._bg.used == len(_EDGE_WORDS)  # one word per digit, no redraw


def test_row_maxima_of_extreme_raw_words():
    # rows of three; the row minima 0, 1, 14 (j = 7), 2 and 2^64 - 1 give
    # 2^63 // (j + 1) for j = 0, 0, 7, 1 and 2^63 - 1
    words = [5, 0, 9, 1, 7, 3, 40, 14, 77, 6, 3, 2] + [(1 << 64) - 1] * 3
    stream = _fed_stream(words)
    maxima = stream.luroth_row_maxima(5, 3)
    matrix = _fed_stream(words).luroth_digits(15).reshape(5, 3)
    assert maxima.dtype == matrix.dtype == np.uint64
    assert maxima.tolist() == matrix.max(axis=1).tolist()
    assert maxima.tolist() == [1 << 63, 1 << 63, 1 << 60, 1 << 62, 1]
    assert stream._bg.used == len(words)


def test_row_maxima_match_digit_matrix(monkeypatch):
    # about 2^20 draws per k, in chunks from one row to several rows, with a
    # short last chunk
    for k, n in ((1, 2**20 + 3), (7, 150001), (1000, 1049), (2**18 + 1, 4)):
        slow = RngStream(6, k).luroth_digits(n * k).reshape(n, k).max(axis=1)
        for chunk in (999, 2**16 + 5, 2**18, 2**21):
            monkeypatch.setattr(luroth.rng, "_ROW_CHUNK", chunk)
            fast = RngStream(6, k).luroth_row_maxima(n, k)
            assert fast.shape == (n,)
            assert np.array_equal(fast, slow)


def test_max_scaled_cdf_counts_block_digit_matrices():
    # one full block and a short last one of 3 trials, each drawn from its
    # own stream as a digit matrix, row-major
    k = 1000
    full = _MATRIX_DRAW_BUDGET // k
    maxima = np.concatenate([RngStream(6, b).luroth_digits(n * k).reshape(n, k).max(axis=1)
                             for b, n in enumerate((full, 3))])
    got = mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], full + 3, seed=6)
    assert [r.estimate for r in got] == [
        int((maxima < math.ceil(c * k)).sum()) / (full + 3) for c in (0.5, 1.0, 2.0)]


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
def test_ordered_map_keeps_order_and_binds_only_its_workers():
    mask = os.sched_getaffinity(0)
    got = _ordered_map(lambda x: (x, os.sched_getaffinity(0)), range(40), workers=3)
    assert [x for x, _ in got] == list(range(40))
    assert all(len(cpus) == 1 and cpus <= mask for _, cpus in got)
    assert os.sched_getaffinity(0) == mask


def test_ordered_map_under_fast_thread_switches():
    # more workers than cores, and a thread switch every microsecond
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _ordered_map(lambda s: mc_trimmed_trajectory(3000, [3000], seed=s), range(12), 5)
    finally:
        sys.setswitchinterval(old)
    assert many == [mc_trimmed_trajectory(3000, [3000], seed=s) for s in range(12)]


def test_ordered_map_reraises_first_failing_item():
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

    def call():
        try:
            outcome.append(_ordered_map(fn, range(20), workers=3))
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


def test_mc_rho_deterministic_and_worker_independent():
    a = mc_rho(3, 70000, seed=5)
    b = mc_rho(3, 70000, seed=5)
    c = mc_rho(3, 70000, seed=5, workers=4)
    assert a == b == c


def test_unique_max_table_against_python_count():
    # digits 1..3 tie often; row k counts the trials whose maximum over the
    # first k digits is attained once
    n, depth = 5000, 6

    def steps(stream, size):
        return (stream.luroth_digits(size) % np.uint64(3) + np.uint64(1) for _ in range(depth))

    table = _unique_max_table(n, 4, 1, steps)
    rows = np.array([d.tolist() for d in steps(RngStream(4, 0), n)]).T.tolist()
    for k in range(1, depth + 1):
        unique = sum(row[:k].count(max(row[:k])) == 1 for row in rows)
        assert table[k - 1].estimate == unique / n


def test_mc_rho_validates():
    with pytest.raises(ValueError):
        mc_rho(0, 1000)
    with pytest.raises(ValueError):
        mc_rho(2, 50)


def test_mc_rho_rows_do_not_depend_on_k_max():
    # 70001 is not a multiple of the block size, so the short last block
    # is checked too; each row must equal the last row of a run stopped there
    table = mc_rho(40, 70001, seed=5, workers=3)
    assert len(table) == 40
    for k in (1, 3, 17, 40):
        assert table[k - 1] == mc_rho(k, 70001, seed=5)[-1]


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


def test_mc_max_scaled_cdf_deterministic():
    # at k = 1000 a block holds 4194 trials: three full blocks and a short one
    for k, samples in ((50, 30000), (1000, 12599)):
        a = mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], samples, seed=2)
        b = mc_max_scaled_cdf(k, [0.5, 1.0, 2.0], samples, seed=2, workers=3)
        assert a == b


def test_mc_max_scaled_cdf_grid_rows_match_single_points():
    # c = 0.1 puts the threshold ceil(0.3) - 1 = 0 below the smallest digit
    cs = [0.1, 1.0, 2.5]
    grid = mc_max_scaled_cdf(3, cs, 50001, seed=4, workers=2)
    assert len(grid) == 3
    assert grid[0].estimate == 0.0
    for c, r in zip(cs, grid):
        assert r == mc_max_scaled_cdf(3, [c], 50001, seed=4)[0]


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
    # raw words 0 and 1 (the digit 2^63) inside chunks and at chunk edges
    # shift no later digit, so every chunk size reads the same path
    n = 6 * 10**5
    words = RngStream(9).raw64(n)
    for i, w in ((1500, 0), (2**16, 1), (2**16 + 7, 0), (2**19 - 1, 1), (5 * 10**5, 0)):
        words[i] = w
    cps = [10, 1000, 2**19 - 1, 2**19 + 3, n]
    runs = []
    for chunk in (2**10, 2**16, 2**19):
        feed = _RawFeed(words)
        monkeypatch.setattr(luroth.rng, "Philox", lambda key: feed)
        monkeypatch.setattr(luroth.simulation, "_TRAJ_CHUNK", chunk)
        runs.append(mc_trimmed_trajectory(n, cps, seed=9))
        assert feed.used == n
    assert runs[0] == runs[1] == runs[2]
    digits = [_digit_of_word(w) for w in words.tolist()]
    total, top = sum(digits), max(digits)
    assert top == 1 << 63
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
    a[0] = np.uint64(1 << 63)  # the largest digit the sampler can emit
    a[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    assert _exact_sum_u64(a) == sum(int(v) for v in a.tolist())


def test_sum_and_max_guard_branches(monkeypatch):
    split_calls = []

    def counted(a):
        split_calls.append(len(a))
        return _exact_sum_u64(a)

    monkeypatch.setattr(luroth.simulation, "_exact_sum_u64", counted)
    third = ((1 << 64) - 1) // 3  # 3 * third = 2^64 - 1, the uint64 maximum
    cases = [
        ([(1 << 62) - 1] * 4, False),  # max * n = 2^64 - 4
        ([third] * 3, False),          # max * n = 2^64 - 1
        ([1 << 62] * 4, True),         # max * n = 2^64: the plain sum wraps to 0
        ([third + 1] * 3, True),       # max * n = 2^64 + 2
        ([1 << 63, 1], True),          # the largest digit, from raw word 0 or 1
        ([1 << 63, 1 << 63, 7], True),
        ([1 << 63], False),
    ]
    for values, split in cases:
        split_calls.clear()
        total, top = _sum_and_max(np.array(values, dtype=np.uint64))
        assert (total, top) == (sum(values), max(values))
        assert bool(split_calls) == split


def test_trajectory_against_python_reference(monkeypatch):
    # raw words 0 and 1 give the digit 2^63; they fall in the last chunk of
    # seven digits, whose sum exceeds 2^64, while the chunks before are small
    words = [10, 7, 1000, 5, 6, 77, 0, 19, 1, 2**40, 2**64 - 5, 12]
    feed = _RawFeed(words)
    monkeypatch.setattr(luroth.rng, "Philox", lambda key: feed)
    got = mc_trimmed_trajectory(12, [2, 5, 12], seed=0)
    digits = [_digit_of_word(w) for w in words]
    want = [(k, float(sum(digits[:k]) - max(digits[:k])) / (k * math.log(k)))
            for k in (2, 5, 12)]
    assert got == want
    assert feed.used == len(words)
