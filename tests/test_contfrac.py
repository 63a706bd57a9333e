"""Continued-fraction expansion and sampling: digit-law checks."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from luroth.contfrac import (
    expand_cf,
    _cf_digits,
    mc_cf_rho_table,
    mc_cf_trimmed_table,
)
from luroth.rng import RngStream

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


class TestSamplerLaw:
    """The natural-extension sampler against the Gauss-measure digit law."""

    N = 1 << 20

    @pytest.fixture(scope="class")
    def digits(self):
        kept, smallest = {}, math.inf
        for k, a in enumerate(_cf_digits(RngStream(17), self.N, 32), start=1):
            if k in (1, 2, 32):
                kept[k] = a
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
        r = mc_cf_rho_table(k, 10**5, seed=29)[k - 1]
        se = math.sqrt(oracle * (1 - oracle) / n) + r.standard_error
        assert abs(r.estimate - oracle) < 4 * se


class TestMcCfRho:
    def test_k1_is_certain(self):
        r = mc_cf_rho_table(1, 10**4, seed=0)[0]
        assert r.estimate == 1.0
        assert r.standard_error == 0.0

    def test_deterministic(self):
        a = mc_cf_rho_table(8, 10**5, seed=3)
        b = mc_cf_rho_table(8, 10**5, seed=3)
        c = mc_cf_rho_table(8, 10**5, seed=3, workers=2)
        d = mc_cf_rho_table(8, 10**5, seed=3, workers=4)
        assert a == b == c == d

    def test_rows_do_not_depend_on_k_max(self):
        short = mc_cf_rho_table(8, 10**5, seed=0)
        long = mc_cf_rho_table(32, 10**5, seed=0)
        assert len(short) == 8 and len(long) == 32
        assert short == long[:8]

    def test_seed_matters(self):
        assert mc_cf_rho_table(8, 10**5, seed=0) != mc_cf_rho_table(8, 10**5, seed=1)

    def test_plausible_range(self):
        r = mc_cf_rho_table(2, 10**5, seed=0)[1]
        # two digits tie only when equal; P(unique) is well above 1/2
        assert 0.7 < r.estimate < 1.0

    def test_uniqueness_grows_with_depth(self):
        # heavy-tailed digits: the running max becomes dominant, so the
        # probability it is attained once rises with depth
        table = mc_cf_rho_table(32, 10**5, seed=0)
        shallow, deep = table[1], table[31]
        gap = 3 * (deep.standard_error + shallow.standard_error)
        assert deep.estimate > shallow.estimate + gap

    def test_no_depth_cap(self):
        table = mc_cf_rho_table(100, 10**4, seed=0)
        assert len(table) == 100
        assert 0.9 < table[99].estimate < 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_rho_table(0, 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho_table(8, 9999)


class TestMcCfTrimmed:
    def test_k2_lower_bound(self):
        # (a1 + a2 - max)/ (2 ln 2) = min(a1, a2)/(2 ln 2) >= 1/(2 ln 2)
        r = mc_cf_trimmed_table([2], 10**4, seed=0)[0]
        assert r.estimate >= 1.0 / (2.0 * math.log(2.0)) - 1e-12

    def test_medians_finite_and_positive(self):
        for r in mc_cf_trimmed_table([8, 16, 32], 10**4, seed=0):
            assert math.isfinite(r.estimate)
            assert r.estimate > 0.0

    def test_deterministic(self):
        a = mc_cf_trimmed_table([16], 10**4, seed=5)
        b = mc_cf_trimmed_table([16], 10**4, seed=5, workers=4)
        assert a == b

    def test_blocks_fill_their_own_rows_under_fast_thread_switches(self):
        # four blocks on more workers than cores, switching every microsecond
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = mc_cf_trimmed_table([2, 8, 16], 10**5, seed=4, workers=4)
        finally:
            sys.setswitchinterval(old)
        assert threaded == mc_cf_trimmed_table([2, 8, 16], 10**5, seed=4, workers=1)

    def test_rows_do_not_depend_on_ks(self):
        both = mc_cf_trimmed_table([16, 2], 10**5, seed=5, workers=2)
        assert both == [mc_cf_trimmed_table([16], 10**5, seed=5)[0],
                        mc_cf_trimmed_table([2, 8, 32], 10**5, seed=5)[0]]
        first, again = mc_cf_trimmed_table([8, 8], 10**4, seed=1)
        assert first == again

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([1], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([8, 1], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([], 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed_table([16], 100)
