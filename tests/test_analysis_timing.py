"""Tests for the timing-leakage observatory (repro.analysis.timing)."""

import pytest

from repro.analysis import Adversary
from repro.analysis.timing import (
    detect_onset,
    estimate_rates,
    load_inference_attack,
    simulate_round_times,
    timing_attack_benchmark,
)
from repro.errors import ConfigurationError
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock
from repro.testing.oracle import check_timing_channel


class TestTimingObserver:
    """The adversary's round-release instants, as the attacks read them."""

    def test_records_and_summarizes_gaps(self):
        adv = Adversary()
        for round_no, t in enumerate((0.0, 1.0, 3.0, 6.0)):
            adv.observe("write", f"x{round_no}", round_no, at=t)
            adv.observe("write", f"y{round_no}", round_no, at=t + 0.5)
        assert adv.release_times == [0.0, 1.0, 3.0, 6.0]
        assert estimate_rates(adv.release_times, 6) == [6.0, 3.0, 2.0]

    def test_rejects_non_monotone_timestamps(self):
        adv = Adversary()
        adv.observe("write", "a", 0, at=5.0)
        with pytest.raises(ConfigurationError):
            adv.observe("write", "b", 1, at=4.0)

    def test_empty_summary(self):
        adv = Adversary()
        adv.observe("write", "a", 0)    # no instant: nothing stamped
        assert adv.release_times == []

    def test_attach_stamps_first_access_of_each_round(self):
        tracer = Tracer()
        adv = Adversary()
        clock = SimClock()
        callback = adv.attach(tracer, clock=lambda: clock.now)
        for round_no in (1, 1, 1, 2, 2, 3):
            clock.advance(0.5)
            tracer.event("storage.access", op="write", id=f"x{clock.now}",
                         round=round_no)
        assert adv.release_times == [0.5, 2.0, 3.0]
        # Other events never stamp.
        tracer.event("report.emit", lines=1)
        tracer.close_span(tracer.open_span("round"), 0.1)
        assert adv.accesses == 6
        tracer.unsubscribe(callback)
        tracer.event("storage.access", op="write", id="y", round=4)
        assert len(adv.release_times) == 3


class TestAttacks:
    def test_estimate_rates_inverts_gaps(self):
        rates = estimate_rates([0.0, 0.1, 0.3], r=20)
        assert rates[0] == pytest.approx(200.0)
        assert rates[1] == pytest.approx(100.0)

    def test_estimate_rates_zero_gap_maps_to_zero(self):
        assert estimate_rates([1.0, 1.0], r=20) == [0.0]

    def test_load_attack_recovers_on_fill_load(self):
        rates = [100.0] * 20 + [400.0] * 20
        times = simulate_round_times(rates, r=20, seed=3)
        attack = load_inference_attack(times, rates, r=20)
        assert attack["leakage_score"] > 0.8

    def test_load_attack_blind_on_fixed_schedule(self):
        rates = [100.0] * 20 + [400.0] * 20
        times = simulate_round_times(rates, r=20, seed=3, schedule="fixed")
        attack = load_inference_attack(times, rates, r=20)
        assert attack["leakage_score"] == 0.0

    def test_detect_onset_finds_the_shift(self):
        rates = [100.0] * 24 + [500.0] * 24
        times = simulate_round_times(rates, r=20, seed=11)
        detected = detect_onset(times)
        assert detected is not None
        assert abs(detected - 24) <= 3

    def test_detect_onset_none_on_constant_gaps(self):
        times = [0.1 * i for i in range(32)]
        assert detect_onset(times) is None

    def test_detect_onset_none_on_short_series(self):
        assert detect_onset([0.0, 1.0, 2.0]) is None


class TestSimulation:
    def test_deterministic_per_seed(self):
        rates = [150.0] * 16
        a = simulate_round_times(rates, r=10, seed=4)
        b = simulate_round_times(rates, r=10, seed=4)
        assert a == b
        c = simulate_round_times(rates, r=10, seed=5)
        assert a != c

    def test_fixed_schedule_has_constant_gaps(self):
        rates = [100.0, 400.0, 50.0, 300.0]
        times = simulate_round_times(rates, r=20, seed=1, schedule="fixed",
                                     interval=0.25)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(0.25) for gap in gaps)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            simulate_round_times([1.0], r=2, schedule="jittered")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            simulate_round_times([0.0], r=2)


class TestBenchmarkAndOracle:
    def test_benchmark_shape_and_headline(self):
        out = timing_attack_benchmark(rounds=48, seed=5)
        assert out["schema"] == "repro.timing/1"
        assert set(out) >= {"on_fill", "fixed", "leakage_drop",
                            "shaped_leaks_less"}
        assert out["shaped_leaks_less"] is True
        assert out["on_fill"]["leakage_score"] > out["fixed"]["leakage_score"]
        assert out["on_fill"]["onset_detected"] is not None

    def test_oracle_passes_on_real_benchmark(self):
        out = timing_attack_benchmark(rounds=48, seed=9)
        assert check_timing_channel(out) == []

    def test_oracle_flags_shaped_leaking_more(self):
        fake = {"seed": 0,
                "on_fill": {"leakage_score": 0.2},
                "fixed": {"leakage_score": 0.6}}
        violations = check_timing_channel(fake)
        assert {v.kind for v in violations} == {"timing"}
        assert len(violations) == 2  # >= on-fill AND above the ceiling

    def test_oracle_flags_noisy_shaped_schedule(self):
        fake = {"seed": 0,
                "on_fill": {"leakage_score": 0.9},
                "fixed": {"leakage_score": 0.5}}
        (violation,) = check_timing_channel(fake)
        assert violation.kind == "timing"
        assert "ceiling" in violation.detail


@pytest.mark.chaos
class TestTimingChannelSweep:
    """The chaos-suite property: shaping wins across a seed sweep."""

    @pytest.mark.parametrize("seed", range(1, 26))
    def test_shaped_schedule_passes_oracle(self, seed):
        out = timing_attack_benchmark(rounds=64, seed=seed)
        assert check_timing_channel(out) == [], out["fixed"]
