"""Tests for the adversary's leakage readings: entropy, KL, χ², round CV."""

import math
import random

import pytest

from repro.analysis import Adversary
from repro.analysis.adversary import chi_square_sf
from repro.bench.harness import run_waffle
from repro.core.config import WaffleConfig
from repro.sim.costmodel import CostModel
from repro.storage.recording import AccessRecord
from repro.workloads.ycsb import workload_c


def reads(sids, rounds=None) -> Adversary:
    rounds = rounds if rounds is not None else [0] * len(sids)
    return Adversary().feed(AccessRecord("read", sid, rnd, i)
                            for i, (sid, rnd) in enumerate(zip(sids, rounds)))


class TestMetricsOnSyntheticTraces:
    def test_uniform_counts_maximum_entropy(self):
        leakage = reads([f"id{i}" for i in range(50)]).leakage()
        assert leakage.normalized_entropy == pytest.approx(1.0)
        assert leakage.kl_divergence_bits == pytest.approx(0.0)

    def test_skewed_counts_lower_entropy(self):
        skewed = reads(["hot"] * 90 + [f"cold{i}" for i in range(10)])
        assert skewed.leakage().normalized_entropy < 0.8
        assert skewed.leakage().kl_divergence_bits > 1.0

    def test_chi_square_rejects_skew_accepts_uniform(self):
        uniform = reads([f"id{i % 20}" for i in range(2000)])
        rng = random.Random(1)
        skewed_ids = ["hot" if rng.random() < 0.4 else f"c{rng.randrange(19)}"
                      for _ in range(2000)]
        assert uniform.leakage().chi_square_p > 0.9
        assert reads(skewed_ids).leakage().chi_square_p < 0.01

    def test_chi_square_tail_known_answers(self):
        """Closed forms: two degrees of freedom is exp(-x/2); one is
        erfc(sqrt(x/2)); the 5 % critical values of the tables."""
        for x in (0.1, 1.0, 2.0, 7.5, 40.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2),
                                                        rel=1e-12)
            assert chi_square_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2)), rel=1e-10)
        for dof, critical in ((1, 3.841459), (10, 18.307038),
                              (100, 124.342113)):
            assert chi_square_sf(critical, dof) == pytest.approx(0.05,
                                                                 abs=1e-7)
        assert chi_square_sf(0.0, 5) == 1.0

    def test_round_load_profile_constant_rounds(self):
        sids = [f"id{i}" for i in range(40)]
        rounds = [i // 10 for i in range(40)]  # 10 reads per round
        profile = reads(sids, rounds).round_load()
        assert profile["read_mean"] == pytest.approx(10.0)
        assert profile["read_cv"] == pytest.approx(0.0)

    def test_degenerate_traces(self):
        leakage = Adversary().leakage()
        assert leakage.normalized_entropy == 1.0
        assert leakage.kl_divergence_bits == 0.0
        assert leakage.chi_square_p == 1.0


class TestMetricsOnWaffle:
    @pytest.fixture(scope="class")
    def waffle_records(self):
        n = 1024
        config = WaffleConfig.paper_defaults(n=n, seed=5)
        workload = workload_c(n, seed=6, value_size=256)
        items = dict(workload.initial_records())
        trace = workload.trace(config.r * 150)
        _, datastore = run_waffle(config, items, trace, CostModel(),
                                  record=True)
        return datastore.recorder.records

    def test_waffle_is_maximally_uniform(self, waffle_records):
        summary = Adversary(from_round=1).feed(waffle_records).leakage()
        # Every id read exactly once -> flat profile on every metric.
        assert summary.normalized_entropy == pytest.approx(1.0)
        assert summary.kl_divergence_bits == pytest.approx(0.0, abs=1e-9)
        assert summary.chi_square_p == pytest.approx(1.0)
        # Constant B reads and B writes per round.
        assert summary.read_cv == pytest.approx(0.0, abs=1e-9)
        assert summary.write_cv == pytest.approx(0.0, abs=1e-9)

    def test_insecure_store_leaks_in_contrast(self):
        from repro.storage.recording import RecordingStore
        from repro.storage.redis_sim import RedisSim
        from repro.baselines.insecure import InsecureStore

        n = 1024
        workload = workload_c(n, seed=6, value_size=64)
        items = dict(workload.initial_records())
        recorder = RecordingStore(RedisSim())
        store = InsecureStore(recorder, items)
        for request in workload.trace(6000):
            store.execute(request)
        summary = Adversary().feed(recorder.records).leakage()
        assert summary.normalized_entropy < 0.95
        assert summary.kl_divergence_bits > 0.3
        assert summary.chi_square_p < 0.01
