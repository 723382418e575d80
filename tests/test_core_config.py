"""Tests for WaffleConfig: validation and the Theorem 7.1/7.2 bounds.

The paper-exact pins come straight from Table 2 at N=10^6:
high → α=165, β=161; medium → α=1000, β=5; low → α=999999, β=4.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ALPHA_UNBOUNDED, SecurityLevel, WaffleConfig
from repro.errors import ConfigurationError


def make(n=1000, b=100, r=40, f_d=20, d=500, c=60, **kw) -> WaffleConfig:
    return WaffleConfig(n=n, b=b, r=r, f_d=f_d, d=d, c=c, **kw)


class TestValidation:
    def test_valid_config(self):
        make()

    @pytest.mark.parametrize("overrides", [
        dict(n=0),
        dict(b=1),
        dict(r=0),
        dict(r=101),
        dict(f_d=-1),
        dict(f_d=30, d=0),          # f_D without dummies
        dict(f_d=0, d=10),          # dummies without f_D
        dict(f_d=600, d=700),       # f_D > D... also r+f_d >= b
        dict(r=80, f_d=20),         # r + f_D == b leaves no fake reals
        dict(c=-1),
        dict(c=2000),               # cache beyond N
        dict(value_size=0),
        dict(dummy_policy="bogus"),
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            make(**overrides)

    def test_server_residency_constraint(self):
        # C + B - f_D must not exceed N.
        with pytest.raises(ConfigurationError):
            make(n=100, b=90, r=10, f_d=5, d=20, c=20)

    def test_no_dummies_allowed(self):
        config = make(f_d=0, d=0)
        assert config.alpha_bound() == math.ceil(999 / (100 - 40))


class TestBounds:
    def test_table2_high_security_exact(self):
        config = WaffleConfig.security_preset(SecurityLevel.HIGH, n=10**6)
        assert (config.b, config.r, config.f_d, config.d) == (10_000, 25,
                                                              3914, 4000)
        assert config.c == 990_000
        assert config.alpha_bound() == 165
        assert config.beta_bound() == 161

    def test_table2_medium_security_exact(self):
        config = WaffleConfig.security_preset(SecurityLevel.MEDIUM, n=10**6)
        assert (config.b, config.r, config.f_d) == (2500, 1000, 500)
        assert config.d == 350_000 and config.c == 20_000
        assert config.alpha_bound() == 1000
        assert config.beta_bound() == 5

    def test_table2_low_security_exact(self):
        config = WaffleConfig.security_preset(SecurityLevel.LOW, n=10**6)
        assert config.alpha_bound() == ALPHA_UNBOUNDED
        assert config.beta_bound() == 4

    def test_alpha_formula(self):
        config = make()
        assert config.alpha_bound() == math.ceil(
            max((config.n - 1) / (config.b - config.r - config.f_d),
                config.d / config.f_d))

    def test_beta_formula(self):
        config = make(c=700)
        assert config.beta_bound() == math.floor(
            config.c / (config.b - config.f_d + config.r) - 1)

    def test_beta_clamped_at_zero(self):
        assert make(c=10).beta_bound() == 0

    def test_effective_alpha_reshuffle_doubles_dummy_term(self):
        config = make(d=5000, f_d=20, dummy_policy="reshuffle")
        epoch = math.ceil(config.d / config.f_d)
        assert config.alpha_bound_effective() == max(
            math.ceil((config.n - 1) / config.f_r_min), 2 * epoch - 2)

    def test_effective_alpha_round_robin_matches_paper(self):
        config = make(dummy_policy="round_robin")
        assert config.alpha_bound_effective() == config.alpha_bound()

    def test_security_score(self):
        config = make()
        assert config.security_score() == pytest.approx(
            config.beta_bound() / config.alpha_bound())

    def test_bandwidth_overhead_constant(self):
        config = make()
        assert config.bandwidth_overhead() == pytest.approx(
            (config.f_d + config.f_r_min) / config.r)

    def test_higher_security_higher_score(self):
        high = WaffleConfig.security_preset(SecurityLevel.HIGH, n=10**6)
        medium = WaffleConfig.security_preset(SecurityLevel.MEDIUM, n=10**6)
        low = WaffleConfig.security_preset(SecurityLevel.LOW, n=10**6)
        assert high.security_score() > medium.security_score() > \
            low.security_score()


class TestPresetsAndScaling:
    def test_paper_defaults_at_paper_scale(self):
        config = WaffleConfig.paper_defaults(n=2**20)
        assert config.b == 2500
        assert config.r == 1000
        assert config.f_d == 500
        assert config.c == round(0.02 * 2**20)
        # D balances the two alpha ratios (§8.2 "Changing D").
        assert config.d == pytest.approx((config.n - 1) / config.f_r_min
                                         * config.f_d, rel=0.01)

    def test_paper_defaults_scale_down(self):
        config = WaffleConfig.paper_defaults(n=2**14)
        assert config.r / config.b == pytest.approx(0.4, abs=0.05)
        assert config.f_d / config.b == pytest.approx(0.2, abs=0.05)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(SecurityLevel)),
           st.integers(2_000, 200_000))
    def test_presets_always_valid(self, level, n):
        config = WaffleConfig.security_preset(level, n=n)
        assert config.n == n
        assert config.alpha_bound() >= 1
        assert config.beta_bound() >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1_000, 500_000))
    def test_defaults_always_valid(self, n):
        config = WaffleConfig.paper_defaults(n=n)
        assert config.r + config.f_d < config.b
        assert config.c + config.b - config.f_d <= config.n
