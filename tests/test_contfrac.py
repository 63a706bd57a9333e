"""Continued-fraction sampling: map identities and digit-law checks."""

import math

import numpy as np
import pytest

from luroth.contfrac import (
    CfSample,
    cf_digit,
    expand_cf,
    gauss_step,
    mc_cf_rho,
    mc_cf_trimmed,
    sample_gauss_measure,
)
from luroth.rng import RngStream

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def gauss_kuzmin(n):
    """Invariant first-digit law P(a1 = n) = log2(1 + 1/(n(n+2)))."""
    return math.log2(1.0 + 1.0 / (n * (n + 2)))


class TestMapBasics:
    def test_digit_examples(self):
        assert cf_digit(0.25) == 4
        assert cf_digit(2.0 / 7.0) == 3
        assert cf_digit(0.99) == 1

    def test_golden_ratio_fixed_point(self):
        # 1/phi has the all-ones expansion; the map sends it (nearly) to itself
        assert cf_digit(GOLDEN_FRAC) == 1
        assert abs(gauss_step(GOLDEN_FRAC) - GOLDEN_FRAC) < 1e-15

    def test_step_examples(self):
        assert gauss_step(0.25) == 0.0
        assert abs(gauss_step(2.0 / 7.0) - 0.5) < 1e-15

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                cf_digit(bad)
            with pytest.raises(ValueError):
                gauss_step(bad)


class TestExpand:
    def test_rational_terminates(self):
        # 2/7 = [0; 3, 2] exactly in binary floats? 2/7 is not dyadic, so the
        # float orbit just follows the float's own (long) expansion; use a
        # dyadic rational instead where termination is exact.
        got = expand_cf(0.25, 10)
        assert got.digits == (4,)
        assert got.seed_point == 0.25

    def test_known_prefix(self):
        # pi - 3 = [0; 7, 15, 1, 292, ...]
        got = expand_cf(math.pi - 3.0, 4)
        assert got.digits == (7, 15, 1, 292)

    def test_depth_cap_and_domain(self):
        with pytest.raises(ValueError):
            expand_cf(0.5, 0)
        with pytest.raises(ValueError, match=r"^k above the depth cap 40$"):
            expand_cf(0.5, 41)
        with pytest.raises(ValueError):
            expand_cf(1.5, 3)

    def test_sample_type(self):
        s = expand_cf(0.3, 3)
        assert isinstance(s, CfSample)
        assert len(s.digits) == 3


class TestGaussMeasure:
    def test_inverse_cdf_examples(self):
        assert abs(sample_gauss_measure(0.5) - (math.sqrt(2.0) - 1.0)) < 1e-15
        with pytest.raises(ValueError):
            sample_gauss_measure(0.0)
        with pytest.raises(ValueError):
            sample_gauss_measure(1.0)

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


class TestMcCfRho:
    def test_k1_is_certain(self):
        r = mc_cf_rho(1, 10**4, seed=0)
        assert r.estimate == 1.0
        assert r.standard_error == 0.0

    def test_deterministic(self):
        a = mc_cf_rho(8, 10**5, seed=3)
        b = mc_cf_rho(8, 10**5, seed=3)
        c = mc_cf_rho(8, 10**5, seed=3, workers=4)
        assert a == b == c

    def test_seed_matters(self):
        assert mc_cf_rho(8, 10**5, seed=0) != mc_cf_rho(8, 10**5, seed=1)

    def test_plausible_range(self):
        r = mc_cf_rho(2, 10**5, seed=0)
        # two digits tie only when equal; P(unique) is well above 1/2
        assert 0.7 < r.estimate < 1.0
        assert r.samples == 10**5

    def test_uniqueness_grows_with_depth(self):
        # heavy-tailed digits: the running max becomes dominant, so the
        # probability it is attained once rises with depth
        deep = mc_cf_rho(32, 10**5, seed=0)
        shallow = mc_cf_rho(2, 10**5, seed=0)
        gap = 3 * (deep.standard_error + shallow.standard_error)
        assert deep.estimate > shallow.estimate + gap

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_rho(0, 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho(41, 10**4)
        with pytest.raises(ValueError):
            mc_cf_rho(8, 9999)


class TestMcCfTrimmed:
    def test_k2_lower_bound(self):
        # (a1 + a2 - max)/ (2 ln 2) = min(a1, a2)/(2 ln 2) >= 1/(2 ln 2)
        r = mc_cf_trimmed(2, 10**4, seed=0)
        assert r.estimate >= 1.0 / (2.0 * math.log(2.0)) - 1e-12

    def test_medians_finite_and_positive(self):
        for k in (8, 16, 32):
            r = mc_cf_trimmed(k, 10**4, seed=0)
            assert math.isfinite(r.estimate)
            assert r.estimate > 0.0

    def test_deterministic(self):
        a = mc_cf_trimmed(16, 10**4, seed=5)
        b = mc_cf_trimmed(16, 10**4, seed=5, workers=4)
        assert a == b

    def test_rejections(self):
        with pytest.raises(ValueError):
            mc_cf_trimmed(1, 10**4)
        with pytest.raises(ValueError):
            mc_cf_trimmed(16, 100)
