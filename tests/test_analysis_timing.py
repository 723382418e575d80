"""Tests for the timing-leakage observatory (repro.analysis.timing)."""

import pytest

from repro.analysis.timing import (
    TimingObserver,
    attach_timing_observer,
    detect_onset,
    estimate_rates,
    load_inference_attack,
    simulate_round_times,
    timing_attack_benchmark,
)
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock
from repro.testing.oracle import check_timing_channel


class TestTimingObserver:
    def test_records_and_summarizes_gaps(self):
        observer = TimingObserver()
        for t in (0.0, 1.0, 3.0, 6.0):
            observer.observe_round(t)
        assert len(observer) == 4
        assert observer.gaps() == [1.0, 2.0, 3.0]
        summary = observer.summary()
        assert summary["rounds"] == 4
        assert summary["mean_gap"] == pytest.approx(2.0)
        assert summary["min_gap"] == 1.0 and summary["max_gap"] == 3.0

    def test_rejects_non_monotone_timestamps(self):
        observer = TimingObserver()
        observer.observe_round(5.0)
        with pytest.raises(ValueError):
            observer.observe_round(4.0)

    def test_empty_summary(self):
        assert TimingObserver().summary() == {"rounds": 0, "gaps": 0}

    def test_attach_stamps_first_access_of_each_round(self):
        tracer = Tracer()
        observer = TimingObserver()
        clock = SimClock()
        callback = attach_timing_observer(tracer, observer,
                                          clock=lambda: clock.now)
        for round_no in (1, 1, 1, 2, 2, 3):
            clock.advance(0.5)
            tracer.event("storage.access", op="read", id="x",
                         round=round_no)
        assert observer.timestamps == [0.5, 2.0, 3.0]
        # Other events never stamp.
        tracer.event("report.emit", lines=1)
        tracer.close_span(tracer.open_span("round"), 0.1)
        assert len(observer) == 3
        tracer.unsubscribe(callback)
        tracer.event("storage.access", op="read", id="y", round=4)
        assert len(observer) == 3


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
