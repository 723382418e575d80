"""Tests for the simulated clock and the cost model."""

import math

import pytest

from repro.sim import CostModel, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_reset(self):
        clock = SimClock(start=5)
        clock.reset()
        assert clock.now == 0.0


class TestCostModel:
    def test_core_efficiency_monotone_to_four(self):
        cost = CostModel()
        effs = [cost.core_efficiency(c) for c in (1, 2, 3, 4)]
        assert effs == sorted(effs)
        assert effs[0] == 1.0

    def test_core_efficiency_peaks_at_four(self):
        cost = CostModel()
        peak = cost.core_efficiency(4)
        assert cost.core_efficiency(6) < peak
        assert cost.core_efficiency(12) < cost.core_efficiency(6)

    def test_core_efficiency_floor(self):
        cost = CostModel()
        assert cost.core_efficiency(100) >= cost.core_floor * cost.core_efficiency(4) - 1e-12

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            CostModel().core_efficiency(0)

    def test_pipelined_cheaper_than_unbatched_per_op(self):
        cost = CostModel()
        batched = cost.pipelined_round_trip_s(100, 1.0) / 100
        assert batched < cost.unbatched_op_s(1.0)

    def test_transfer_scales_linearly(self):
        cost = CostModel()
        assert cost.transfer_s(10, 1.0) == pytest.approx(10 * cost.transfer_per_kib_s)

    def test_lru_cost_grows_with_cache(self):
        cost = CostModel()
        assert cost.lru_op_s(2**20) > cost.lru_op_s(2**10)

    def test_index_cost_logarithmic(self):
        cost = CostModel()
        small, large = cost.index_op_s(2**10), cost.index_op_s(2**20)
        assert large == pytest.approx(small * (math.log2(2**20 + 2)
                                               / math.log2(2**10 + 2)))

    def test_aead_floor_for_tiny_values(self):
        cost = CostModel()
        assert cost.aead_s(1, 0.0) > 0
