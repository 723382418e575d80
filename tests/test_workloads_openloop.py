"""Statistical and determinism tests for the open-loop arrival generators.

These generators feed both the serving harness and the timing
adversary's ground truth, so two properties are load-bearing: the
processes must actually have the distributions they claim (KS goodness
of fit, rate bookkeeping), and every stream must be bit-reproducible
per seed (the chaos harness replays them).
"""

from __future__ import annotations

import math

import pytest

from tests.stats import ks_exponential
from repro.errors import ConfigurationError
from repro.workloads.openloop import (
    Arrival,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name


class TestPoissonArrivals:
    def test_interarrivals_pass_ks_against_exponential(self):
        stream = PoissonArrivals(500.0, 64, seed=13)
        arrivals = stream.generate(4.0)
        times = [a.at for a in arrivals]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        statistic, critical = ks_exponential(gaps, 500.0)
        assert len(gaps) > 1000  # the test has real power
        assert statistic < critical, (statistic, critical)

    def test_wrong_rate_fails_the_same_ks(self):
        """Sanity: the KS check can actually reject a bad rate."""
        stream = PoissonArrivals(500.0, 64, seed=13)
        times = [a.at for a in stream.generate(4.0)]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        statistic, critical = ks_exponential(gaps, 900.0)
        assert statistic > critical

    def test_mean_rate_close_to_nominal(self):
        arrivals = PoissonArrivals(1000.0, 16, seed=3).generate(5.0)
        observed = len(arrivals) / 5.0
        assert observed == pytest.approx(1000.0, rel=0.05)

    def test_deterministic_per_seed(self):
        first = PoissonArrivals(300.0, 32, seed=21).generate(2.0)
        second = PoissonArrivals(300.0, 32, seed=21).generate(2.0)
        different = PoissonArrivals(300.0, 32, seed=22).generate(2.0)
        assert first == second
        assert first != different

    def test_arrivals_sorted_within_horizon(self):
        arrivals = PoissonArrivals(200.0, 8, seed=1).generate(1.0)
        times = [a.at for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)

    def test_read_fraction_respected(self):
        arrivals = PoissonArrivals(2000.0, 8, seed=5,
                                   read_fraction=0.8).generate(2.0)
        reads = sum(a.op is Operation.READ for a in arrivals)
        assert reads / len(arrivals) == pytest.approx(0.8, abs=0.03)

    def test_rate_at_is_constant(self):
        stream = PoissonArrivals(123.0, 8, seed=0)
        assert stream.rate_at(0.0) == stream.rate_at(99.0) == 123.0

    def test_keys_are_canonical_and_in_range(self):
        arrivals = PoissonArrivals(500.0, 10, seed=9).generate(0.5)
        valid = {key_name(i) for i in range(10)}
        assert arrivals
        assert {a.key for a in arrivals} <= valid

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0, 8, seed=1)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(10.0, 0, seed=1)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(10.0, 8, seed=1, read_fraction=1.5)


class TestFlashCrowdArrivals:
    def _stream(self, **overrides):
        params = dict(base_rate=200.0, n_keys=64, spike_factor=6.0,
                      burst_start=1.0, burst_duration=1.0, hot_keys=4,
                      hot_fraction=0.9, seed=17)
        params.update(overrides)
        return FlashCrowdArrivals(params.pop("base_rate"),
                                  params.pop("n_keys"), **params)

    def test_rate_at_reflects_the_burst_window(self):
        stream = self._stream()
        assert stream.rate_at(0.5) == pytest.approx(200.0)
        assert stream.rate_at(1.5) == pytest.approx(1200.0)
        assert stream.rate_at(2.5) == pytest.approx(200.0)
        assert stream.in_burst(1.0) and not stream.in_burst(2.0)

    def test_burst_density_spikes(self):
        arrivals = self._stream().generate(3.0)
        inside = sum(1 for a in arrivals if 1.0 <= a.at < 2.0)
        outside = len(arrivals) - inside
        # 6x rate for 1s of 3s: inside should dominate each 1s of outside.
        assert inside > 2 * (outside / 2.0)

    def test_burst_keys_collapse_onto_the_hot_set(self):
        stream = self._stream()
        arrivals = stream.generate(3.0)
        hot = {key_name(i) for i in range(4)}
        burst = [a for a in arrivals if stream.in_burst(a.at)]
        calm = [a for a in arrivals if not stream.in_burst(a.at)]
        burst_hot = sum(a.key in hot for a in burst) / len(burst)
        calm_hot = sum(a.key in hot for a in calm) / len(calm)
        assert burst_hot > 0.85
        assert calm_hot < 0.25  # uniform over 64 keys ~ 6%

    def test_deterministic_per_seed(self):
        assert self._stream().generate(3.0) == self._stream().generate(3.0)
        assert self._stream().generate(3.0) != \
            self._stream(seed=18).generate(3.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._stream(base_rate=0.0)
        with pytest.raises(ConfigurationError):
            self._stream(spike_factor=0.5)
        with pytest.raises(ConfigurationError):
            self._stream(burst_duration=0.0)
        with pytest.raises(ConfigurationError):
            self._stream(hot_keys=65)
        with pytest.raises(ConfigurationError):
            self._stream(hot_fraction=1.5)


class TestArrivalValue:
    def test_arrival_is_frozen(self):
        arrival = Arrival(at=0.5, op=Operation.READ, key=key_name(1))
        with pytest.raises(AttributeError):
            arrival.at = 1.0  # type: ignore[misc]

    def test_time_and_pick_streams_are_independent(self):
        """Changing the op mix must not move arrival times (same seed)."""
        balanced = PoissonArrivals(400.0, 16, seed=6,
                                   read_fraction=0.5).generate(1.0)
        read_only = PoissonArrivals(400.0, 16, seed=6,
                                    read_fraction=1.0).generate(1.0)
        assert [a.at for a in balanced] == [a.at for a in read_only]
        assert math.isclose(balanced[0].at, read_only[0].at)
