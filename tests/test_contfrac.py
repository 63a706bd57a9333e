"""Continued-fraction expansion and sampling: digit-law checks."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import luroth.contfrac
from luroth.contfrac import (
    expand_cf,
    _cf_digits,
    _median_and_interval,
    _overflow_bin,
    mc_cf_rho_table,
    mc_cf_trimmed_table,
)
from luroth.rng import RngStream
from luroth.simulation import _RHO_BLOCK, _step_blocks

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def gauss_kuzmin(n):
    """Invariant first-digit law P(a1 = n) = log2(1 + 1/(n(n+2)))."""
    return math.log2(1.0 + 1.0 / (n * (n + 2)))


def convergent(digits):
    """Exact value of [0; a_1, ..., a_n]."""
    v = Fraction(0)
    for a in reversed(digits):
        v = 1 / (a + v)
    return v


def assert_frequency(hits, n, p, what):
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * se, (what, hits / n, p, se)


class TestExpand:
    def test_rational_terminates(self):
        # 2/7 = [0; 3, 2], but the float 2/7 is a different (dyadic)
        # rational with a longer expansion; 1/4 is dyadic and ends at once
        assert expand_cf(0.25, 10) == (4,)

    def test_known_prefix(self):
        # pi - 3 = [0; 7, 15, 1, 292, ...]
        assert expand_cf(math.pi - 3.0, 4) == (7, 15, 1, 292)
        # e - 2 = [0; 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, ...]
        assert expand_cf(math.e - 2.0, 10) == (1, 2, 1, 1, 4, 1, 1, 6, 1, 1)

    def test_depth_cap_and_domain(self):
        with pytest.raises(ValueError):
            expand_cf(0.5, 0)
        with pytest.raises(ValueError):
            expand_cf(0.5, -3)
        for bad in (0.0, 1.0, -0.5, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                expand_cf(bad, 3)

    def test_exact_binary_value(self):
        # the float 0.3 is 5404319552844595/2^54, whose expansion ends here
        assert expand_cf(0.3, 200) == (3, 2, 1, 900719925474098, 2)

    def test_terminating_expansion_is_the_float(self):
        # no depth cap: every float's expansion terminates well before k = 200
        for x in (0.3, 0.1, math.pi - 3.0, math.e - 2.0, 2.0 / 7.0,
                  GOLDEN_FRAC, 1e-300, 1.0 - 2.0**-53):
            got = expand_cf(x, 200)
            assert len(got) < 200
            assert convergent(got) == Fraction(x), x

    def test_sample_type(self):
        s = expand_cf(0.3, 3)
        assert isinstance(s, tuple)
        assert s == (3, 2, 1)


class TestGaussMeasure:
    def test_cdf_at_half(self):
        # P(X <= 1/2) = log2(3/2)
        u = RngStream(7).uniforms(10**6)
        x = np.expm1(u * math.log(2.0))
        p_hat = float((x <= 0.5).mean())
        target = math.log2(1.5)
        se = math.sqrt(target * (1 - target) / x.size)
        assert abs(p_hat - target) < 4 * se

    def test_mean(self):
        # E[X] = integral x/((1+x) ln 2) = 1/ln 2 - 1
        u = RngStream(11).uniforms(10**6)
        x = np.expm1(u * math.log(2.0))
        target = 1.0 / math.log(2.0) - 1.0
        se = float(x.std(ddof=1) / math.sqrt(x.size))
        assert abs(float(x.mean()) - target) < 3 * se
        assert 0.27 < float(x.std(ddof=1)) < 0.31

    def test_first_digit_law(self):
        u = RngStream(13).uniforms(10**6)
        x = np.expm1(u * math.log(2.0))
        a1 = np.floor(1.0 / x)
        for n in range(1, 6):
            p = gauss_kuzmin(n)
            se = math.sqrt(p * (1 - p) / x.size)
            assert abs(float((a1 == n).mean()) - p) < 4 * se, n


class _Doubles:
    """Stands in for a stream's numpy generator: serves chosen doubles in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        size = out.size if out is not None else size
        take, self.values = self.values[:size], self.values[size:]
        assert len(take) == size, "stub ran out of doubles"
        if out is None:
            out = np.empty(size)
        out[:] = take
        return out


class TestSamplerLaw:
    """The natural-extension sampler against the Gauss-measure digit law."""

    N = 1 << 20

    @pytest.fixture(scope="class")
    def digits(self):
        kept, smallest = {}, math.inf
        for k, a in enumerate(_cf_digits(RngStream(17), self.N, 32), start=1):
            if k in (1, 2, 32):
                kept[k] = a.copy()  # the sampler overwrites a at the next step
            smallest = min(smallest, float(a.min()))
        return kept[1], kept[2], kept[32], smallest

    def test_first_and_deep_marginals(self, digits):
        a1, _, a32, _ = digits
        for name, a in (("a1", a1), ("a32", a32)):
            for n in range(1, 6):
                assert_frequency(int((a == n).sum()), self.N, gauss_kuzmin(n),
                                 (name, n))

    def test_two_digit_cylinders(self, digits):
        a1, a2, _, _ = digits
        for i in range(1, 4):
            for j in range(1, 4):
                # the cylinder a1 = i, a2 = j runs between [0; i, j] and
                # [0; i, j + 1]; its Gauss mass is log2 of the ratio of 1 + x
                lo, hi = sorted((convergent((i, j)), convergent((i, j + 1))))
                p = math.log2((1 + hi) / (1 + lo))
                hits = int(((a1 == i) & (a2 == j)).sum())
                assert_frequency(hits, self.N, p, (i, j))

    def test_digits_at_least_one(self, digits):
        assert digits[3] >= 1.0

    def test_u_one_gives_digit_one(self):
        # numpy's double 1 - 2^-53 is u = 1, where a = floor(1 + s * 0) = 1
        # for every s; floor((1 + s)/u - s) would round below 1 for some s
        n = 64
        stream = RngStream(0)
        stream._gen = _Doubles(np.linspace(0.0, 1.0 - 2.0**-53, n).tolist()
                               + [1.0 - 2.0**-53] * n)
        a = next(_cf_digits(stream, n, 1))
        assert a.tolist() == [1.0] * n
        stream._gen = _Doubles([1.0 - 2.0**-53])
        assert stream.luroth_digits(1).tolist() == [1.0]

    def test_rho_against_exact_euclid_oracle(self):
        # exact Euclid digits of dyadic Gauss-measure points: an independent
        # route to rho_8 through expand_cf and the forward map's definition
        n, k = 20000, 8
        xs = np.expm1(RngStream(23).uniforms(n) * math.log(2.0))
        unique = 0
        for x in xs:
            d = expand_cf(float(x), k)
            assert len(d) == k
            unique += d.count(max(d)) == 1
        oracle = unique / n
        [r] = mc_cf_rho_table([k], 10**5, seed=29)
        se = math.sqrt(oracle * (1 - oracle) / n) + r.standard_error
        assert abs(r.estimate - oracle) < 4 * se


class TestMcCfRho:
    def test_k1_is_certain(self):
        [r] = mc_cf_rho_table([1], 10**4, seed=0)
        assert r.estimate == 1.0
        assert r.standard_error == 0.0

    def test_deterministic(self, cores):
        ks = range(1, 9)
        a = mc_cf_rho_table(ks, 10**5, seed=3)
        b = mc_cf_rho_table(ks, 10**5, seed=3)
        cores(2)
        c = mc_cf_rho_table(ks, 10**5, seed=3)
        cores(4)
        d = mc_cf_rho_table(ks, 10**5, seed=3)
        assert a == b == c == d

    def test_rows_do_not_depend_on_other_ks(self, cores):
        # row 8 is counted at step 8 of the same draws, whatever else is asked
        # for, in any order, with repeats; three workers split the 4 blocks
        cores(3)
        [alone] = mc_cf_rho_table([8], 10**5, seed=0)
        mixed = mc_cf_rho_table([32, 8, 2], 10**5, seed=0)
        repeated = mc_cf_rho_table([8, 2, 8], 10**5, seed=0)
        full = mc_cf_rho_table(range(1, 33), 10**5, seed=0)
        assert len(mixed) == 3 and len(repeated) == 3 and len(full) == 32
        assert alone == mixed[1] == repeated[0] == repeated[2] == full[7]
        assert mixed[2] == repeated[1] == full[1] and mixed[0] == full[31]

    def test_seed_matters(self):
        ks = range(1, 9)
        assert mc_cf_rho_table(ks, 10**5, seed=0) != mc_cf_rho_table(ks, 10**5, seed=1)

    def test_plausible_range(self):
        [r] = mc_cf_rho_table([2], 10**5, seed=0)
        # two digits tie only when equal; P(unique) is well above 1/2
        assert 0.7 < r.estimate < 1.0

    def test_uniqueness_grows_with_depth(self):
        # heavy-tailed digits: the running max becomes dominant, so the
        # probability it is attained once rises with depth
        shallow, deep = mc_cf_rho_table([2, 32], 10**5, seed=0)
        gap = 3 * (deep.standard_error + shallow.standard_error)
        assert deep.estimate > shallow.estimate + gap

    def test_no_depth_cap(self):
        table = mc_cf_rho_table(range(1, 101), 10**4, seed=0)
        assert len(table) == 100
        assert 0.9 < table[99].estimate < 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_rho_table([0], 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho_table([8, 0], 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho_table([], 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho_table([8], 9999)

    @pytest.mark.parametrize("samples", [2 * 10**5, 8 * 10**5])
    def test_memory_is_five_block_arrays_per_worker(self, cores, samples):
        # nothing per trial: a block's counts, one int per k, are held to the
        # end; on top, per worker a block's five arrays (s, u and the digits
        # in _cf_digits, the running maximum and runner-up), one numpy cast
        # buffer of getbufsize() doubles, and 256 KB for the rest
        cores(2)
        ks = [2, 8]
        mc_cf_rho_table(ks, samples)
        tracemalloc.start()
        try:
            mc_cf_rho_table(ks, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = -(-samples // _RHO_BLOCK) * 1024
        buffers = 5 * 8 * _RHO_BLOCK + 8 * np.getbufsize()
        assert peak < held + 2 * buffers + (256 << 10), peak


def _float64_trimmed_stats(ks, samples, seed):
    """The float64 path: one array of (S_k - M_k)/(k log k) per k, as sampled."""
    stats = {k: np.empty(samples) for k in ks}

    def one_block(stream, n):
        start = stream.stream_index * _RHO_BLOCK
        total = np.zeros(n)
        maxa = np.zeros(n)
        for k, a in enumerate(_cf_digits(stream, n, max(ks)), start=1):
            total += a
            np.maximum(maxa, a, out=maxa)
            if k in stats:
                out = stats[k][start:start + n]
                np.subtract(total, maxa, out=out)
                out /= k * math.log(k)

    _step_blocks(samples, seed, one_block)
    return stats


def assert_matches_float64_path(ks, samples, seed):
    # medians bit for bit, and se exactly the order statistics at ranks
    # floor(N/2 - 0.98 sqrt N) and ceil(N/2 + 0.98 sqrt N) of the sorted quotients
    table = mc_cf_trimmed_table(ks, samples, seed=seed)
    stats = _float64_trimmed_stats(ks, samples, seed)
    low = math.floor(samples / 2 - 0.98 * math.sqrt(samples))
    high = math.ceil(samples / 2 + 0.98 * math.sqrt(samples))
    for k, r in zip(ks, table):
        x = np.sort(stats[k])
        assert np.float64(r.estimate).tobytes() == np.median(x).tobytes(), k
        scale = k * math.log(k)
        yl, yu = (int(np.rint(x[i] * scale)) for i in (low, high))
        assert r.standard_error == (yu - yl + 1) / (2 * 1.96 * scale), (k, r.standard_error)


def counts_of(y, top):
    """The histogram _median_and_interval reads: counts[v] of the y equal v, y >= top in bin top."""
    return np.bincount(np.minimum(y, top), minlength=top + 1)


class TestMedian:
    @staticmethod
    def check(y, scale=1.0):
        # the counts median against np.median of the float64 quotients of y
        want = np.median(y.astype(np.float64) / scale)
        got = _median_and_interval(counts_of(y, int(y.max()) + 1), scale)[0]
        assert np.float64(got).tobytes() == want.tobytes(), (y.size, scale)

    def test_odd_and_even_sizes(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 5, 100, 101, 4096, 4097):
            self.check(rng.integers(0, 10**5, n))
            self.check(np.minimum(rng.pareto(0.5, n), 10**5).astype(np.int64))

    def test_heavy_ties(self):
        rng = np.random.default_rng(4)
        for n in (2, 7, 1000, 1001):
            self.check(rng.integers(0, 3, n), 7.0)
            self.check(np.full(n, 1), 10.0)

    def test_integers_with_scale(self):
        rng = np.random.default_rng(5)
        scales = [k * math.log(k) for k in (2, 3, 8, 16, 32, 40, 1000)] + [0.1, 3.0, 1e-290]
        for n in (1, 2, 3, 4, 101, 4096, 4097):
            for scale in scales:
                self.check(rng.integers(0, 2**16, n), scale)
                self.check(rng.integers(0, 40, n), scale)
                self.check(np.full(n, 2**16 - 1), scale)
        # counts beyond 2^32 trials: the middle of 2^33 + 1 is the single 1
        assert _median_and_interval(np.array([2**32, 1, 2**32, 0]), 1.0) == (1.0, 0, 2)

    def test_middle_in_overflow_bin_raises(self):
        # at top 3 the middle of 0 1 3 3 9 is no value of y; 0..98 at top 61
        # reads ranks 39, 49 and 60 below the bin, so pooling its tail changes nothing
        with pytest.raises(RuntimeError, match="overflow bin 3"):
            _median_and_interval(counts_of(np.array([0, 1, 3, 3, 9]), 3), 1.0)
        assert _median_and_interval(counts_of(np.arange(99), 61), 1.0) == (49.0, 39, 60)

    def test_even_size_middles_in_overflow_bin_raise(self):
        # at top 5: the upper middle of 0 1 5 6 lies in the bin, then the lower
        # middle of 0 5 5 6 too; 0..99 at top 61 reads ranks 40, 49, 50 and 60
        for y in ([0, 1, 5, 6], [0, 5, 5, 6]):
            with pytest.raises(RuntimeError, match="overflow bin 5"):
                _median_and_interval(counts_of(np.array(y), 5), 1.0)
        assert _median_and_interval(counts_of(np.arange(100), 61), 1.0) == (49.5, 40, 60)

    def test_default_trimmed_table_arrays(self):
        # `cf --statistic trimmed` at its defaults against the float64 path
        assert_matches_float64_path([2, 8, 16, 32], 10**6, seed=0)

    def test_short_last_block_against_float64_path(self):
        # 123457 trials: three full blocks and a last one of 25153
        assert_matches_float64_path([2, 5, 40], 123457, seed=9)


class TestMedianInterval:
    def test_ranks_are_clamped(self):
        # N = 1 asks for ranks -1 and 2, N = 5 for 0 and 5
        assert _median_and_interval(counts_of(np.array([0]), 1), 1.0) == (0.0, 0, 0)
        assert _median_and_interval(counts_of(np.arange(5), 5), 1.0) == (2.0, 0, 4)

    def test_coverage_on_a_lattice(self):
        # geometric(p) on 1, 2, ...: P(y <= 346) = 0.49977 and P(y <= 347) =
        # 0.50077, so the median is 347 and no CDF step is exactly 1/2
        p, reps, n = 0.002, 400, 10**4
        median = math.ceil(math.log(0.5) / math.log1p(-p))
        assert -math.expm1((median - 1) * math.log1p(-p)) < 0.4999
        assert 0.5001 < -math.expm1(median * math.log1p(-p))
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(reps):
            y = rng.geometric(p, n)
            _, lo, hi = _median_and_interval(counts_of(y, int(y.max()) + 1), 1.0)
            hits += lo <= median <= hi
        se = math.sqrt(0.95 * 0.05 / reps)
        assert 0.95 - 4 * se <= hits / reps <= 0.95 + 4 * se, hits

    def test_end_in_overflow_bin_raises(self):
        # N = 100 asks for ranks 40 and 60: the median is 0 and y_(60) is 1,
        # which a last bin at 2 leaves alone and a last bin at 1 holds
        assert _median_and_interval(np.array([55, 45, 0]), 1.0) == (0.0, 0, 1)
        with pytest.raises(RuntimeError, match="interval reaches the overflow bin 1"):
            _median_and_interval(np.array([55, 45]), 1.0)


class TestMcCfTrimmed:
    def test_k2_lower_bound(self):
        # (a1 + a2 - max)/ (2 ln 2) = min(a1, a2)/(2 ln 2) >= 1/(2 ln 2)
        r = mc_cf_trimmed_table([2], 10**4, seed=0)[0]
        assert r.estimate >= 1.0 / (2.0 * math.log(2.0)) - 1e-12

    def test_medians_finite_and_positive(self):
        for r in mc_cf_trimmed_table([8, 16, 32], 10**4, seed=0):
            assert math.isfinite(r.estimate)
            assert r.estimate > 0.0

    def test_deterministic(self, cores):
        a = mc_cf_trimmed_table([16], 10**4, seed=5)
        cores(4)
        b = mc_cf_trimmed_table([16], 10**4, seed=5)
        assert a == b

    def test_blocks_fill_their_own_rows_under_fast_thread_switches(self, cores):
        # four blocks on more workers than cores, switching every microsecond
        cores(4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = mc_cf_trimmed_table([2, 8, 16], 10**5, seed=4)
        finally:
            sys.setswitchinterval(old)
        cores(1)
        assert threaded == mc_cf_trimmed_table([2, 8, 16], 10**5, seed=4)

    def test_rows_do_not_depend_on_ks(self, cores):
        alone = [mc_cf_trimmed_table([16], 10**5, seed=5)[0],
                 mc_cf_trimmed_table([2, 8, 32], 10**5, seed=5)[0]]
        first, again = mc_cf_trimmed_table([8, 8], 10**4, seed=1)
        assert first == again
        cores(2)
        assert mc_cf_trimmed_table([16, 2], 10**5, seed=5) == alone

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([1], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([8, 1], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([16], 100)

    def test_spread_reads_unclipped_values(self, monkeypatch):
        # at k = 8 the median of S_k - M_k is near 18 and the interval's ends
        # lie within a bin or two of it, so an overflow bin at 40 clips only the
        # tail, which neither column reads: the table must not move
        ks, samples = [2, 8], 10**5
        want = mc_cf_trimmed_table(ks, samples, seed=6)
        y8 = np.rint(_float64_trimmed_stats(ks, samples, 6)[8] * (8 * math.log(8)))
        assert np.count_nonzero(y8 > 40) > samples // 20
        monkeypatch.setattr(luroth.contfrac, "_overflow_bin", lambda k: 40)
        assert mc_cf_trimmed_table(ks, samples, seed=6) == want

    def test_interval_end_in_overflow_bin_raises(self, monkeypatch):
        # at k = 40 and seed 0 the middles of S_k - M_k are 178 and y_(u) is
        # 180, so an overflow bin at 179 leaves the median but cuts the interval
        y40 = _float64_trimmed_stats([40], 10**4, 0)[40] * (40 * math.log(40))
        assert np.median(y40) < 178.5
        monkeypatch.setattr(luroth.contfrac, "_overflow_bin", lambda k: 179)
        with pytest.raises(RuntimeError, match="k = 40: the median's 95 % interval"):
            mc_cf_trimmed_table([2, 40], 10**4)

    @pytest.mark.parametrize("samples", [2 * 10**5, 8 * 10**5])
    def test_memory_is_the_block_histograms_and_buffers(self, cores, samples):
        # nothing per trial: each block's uint16 histograms and, per k, up to
        # 256 B for its dict entry and ndarray header are held to the end; on top,
        # per worker a block's six arrays (s, u and the digits in _cf_digits,
        # which y = sum - max overwrites, the running sum and maximum, and y's
        # integer copy), one numpy cast buffer of getbufsize() doubles, and
        # 256 KB for the rest
        cores(2)
        ks = [2, 8, 16, 32]
        mc_cf_trimmed_table(ks, samples)
        tracemalloc.start()
        try:
            mc_cf_trimmed_table(ks, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = -(-samples // _RHO_BLOCK)
        held = blocks * sum(2 * (_overflow_bin(k) + 1) + 256 for k in ks)
        buffers = 6 * 8 * _RHO_BLOCK + 8 * np.getbufsize()
        assert peak < held + 2 * buffers + (256 << 10), peak
