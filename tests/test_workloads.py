"""Tests for the workload substrate: Zipf, YCSB, correlated clickstream."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workloads import (
    ClickstreamModel,
    CorrelatedWorkload,
    Operation,
    TraceRequest,
    UniformSampler,
    YcsbWorkload,
    ZipfSampler,
    workload_a,
    workload_c,
)
from repro.workloads.ycsb import key_name


class TestTraceTypes:
    def test_write_requires_value(self):
        with pytest.raises(ValueError):
            TraceRequest(Operation.WRITE, "k")

    def test_read_forbids_value(self):
        with pytest.raises(ValueError):
            TraceRequest(Operation.READ, "k", b"v")


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, theta=0.99, scrambled=False, seed=1)
        total = sum(sampler.probability(rank) for rank in range(100))
        assert total == pytest.approx(1.0)

    def test_rank_probabilities_decrease(self):
        sampler = ZipfSampler(100, theta=0.99, scrambled=False, seed=1)
        probs = [sampler.probability(rank) for rank in range(100)]
        assert probs == sorted(probs, reverse=True)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(50, theta=0.0, scrambled=False, seed=1)
        assert sampler.probability(0) == pytest.approx(1 / 50)
        assert sampler.probability(49) == pytest.approx(1 / 50)

    def test_empirical_matches_theoretical(self):
        sampler = ZipfSampler(20, theta=0.99, scrambled=False, seed=2)
        counts = Counter(sampler.sample() for _ in range(40_000))
        for rank in range(5):
            expected = sampler.probability(rank)
            observed = counts[rank] / 40_000
            assert observed == pytest.approx(expected, rel=0.15)

    def test_scramble_spreads_popularity(self):
        sampler = ZipfSampler(1000, theta=0.99, scrambled=True, seed=3)
        top = max(range(1000), key=lambda i: sampler.probabilities_by_index()[i])
        # The hottest key is (almost surely) not index 0 after scrambling.
        counts = Counter(sampler.sample() for _ in range(2000))
        assert counts.most_common(1)[0][0] == top

    def test_probabilities_by_index_sum(self):
        sampler = ZipfSampler(64, theta=0.8, seed=4)
        assert sampler.probabilities_by_index().sum() == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, theta=-1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(30, seed=5)
        assert all(0 <= sampler.sample() < 30 for _ in range(1000))

    def test_reproducible_with_seed(self):
        a = [ZipfSampler(100, seed=6).sample() for _ in range(50)]
        b = [ZipfSampler(100, seed=6).sample() for _ in range(50)]
        assert a == b


class TestUniformSampler:
    def test_range_and_probability(self):
        sampler = UniformSampler(10, seed=1)
        assert all(0 <= sampler.sample() < 10 for _ in range(200))
        assert sampler.probability(3) == pytest.approx(0.1)

    def test_roughly_uniform(self):
        sampler = UniformSampler(10, seed=2)
        counts = Counter(sampler.sample() for _ in range(20_000))
        for key in range(10):
            assert counts[key] / 20_000 == pytest.approx(0.1, rel=0.15)


class TestYcsb:
    def test_key_names_fixed_width(self):
        assert key_name(0) == "user00000000"
        assert key_name(123) == "user00000123"
        assert len(key_name(0)) == len(key_name(99_999_999))

    def test_initial_records_cover_keyspace(self):
        workload = YcsbWorkload(50, read_proportion=1.0, seed=1, value_size=32)
        records = dict(workload.initial_records())
        assert len(records) == 50
        assert all(len(value) == 32 for value in records.values())

    def test_workload_c_all_reads(self):
        workload = workload_c(100, seed=2)
        assert all(req.op is Operation.READ for req in workload.requests(500))

    def test_workload_a_mix(self):
        workload = workload_a(100, seed=3)
        ops = Counter(req.op for req in workload.requests(4000))
        assert ops[Operation.READ] == pytest.approx(2000, rel=0.1)
        assert ops[Operation.WRITE] == pytest.approx(2000, rel=0.1)

    def test_write_values_padded_size(self):
        workload = workload_a(100, seed=5, value_size=128)
        writes = [req for req in workload.requests(200)
                  if req.op is Operation.WRITE]
        assert writes and all(len(req.value) == 128 for req in writes)

    def test_uniform_flag(self):
        workload = YcsbWorkload(1000, read_proportion=1.0, uniform=True,
                                seed=6)
        counts = Counter(req.key for req in workload.requests(5000))
        assert counts.most_common(1)[0][1] < 30  # no hot key

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload(10, read_proportion=1.5)
        with pytest.raises(ConfigurationError):
            YcsbWorkload(10, read_proportion=0.5, value_size=0)

    def test_trace_reproducible(self):
        a = workload_a(100, seed=7).trace(100)
        b = workload_a(100, seed=7).trace(100)
        assert [(r.op, r.key, r.value) for r in a] == \
               [(r.op, r.key, r.value) for r in b]


class TestClickstream:
    def test_walk_visits_valid_keys(self):
        model = ClickstreamModel(50, seed=1)
        walk = model.walk(2000, seed=2)
        assert len(walk) == 2000
        assert all(0 <= node < 50 for node in walk)

    def test_transition_matrix_row_stochastic(self):
        model = ClickstreamModel(40, seed=3)
        matrix = model.transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= 0).all()

    def test_walk_follows_transition_structure(self):
        """Adjacent pairs in the walk concentrate on actual graph edges."""
        model = ClickstreamModel(60, seed=4)
        walk = model.walk(30_000, seed=5)
        edges = {(i, j) for i in range(60) for j in model.neighbours[i]}
        on_edge = sum(
            1 for a, b in zip(walk, walk[1:]) if (a, b) in edges
        )
        assert on_edge / (len(walk) - 1) > 0.7  # teleport is only 5%

    def test_independent_trace_preserves_frequencies(self):
        model = ClickstreamModel(30, seed=6)
        workload = CorrelatedWorkload(model, seed=7)
        correlated = workload.correlated_trace(5000)
        independent = workload.independent_trace(5000)
        assert Counter(r.key for r in correlated) == \
               Counter(r.key for r in independent)

    def test_independent_trace_destroys_correlation(self):
        model = ClickstreamModel(60, seed=8)
        workload = CorrelatedWorkload(model, seed=9)
        edges = {(i, j) for i in range(60) for j in model.neighbours[i]}

        def edge_fraction(trace):
            indices = [int(r.key[4:]) for r in trace]
            pairs = list(zip(indices, indices[1:]))
            return sum((a, b) in edges for a, b in pairs) / len(pairs)

        assert edge_fraction(workload.correlated_trace(8000)) > \
            edge_fraction(workload.independent_trace(8000)) + 0.3

    def test_requires_two_keys(self):
        with pytest.raises(ValueError):
            ClickstreamModel(1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**31))
    def test_model_always_valid(self, n, seed):
        model = ClickstreamModel(n, seed=seed)
        for node, (nbrs, weights) in enumerate(
                zip(model.neighbours, model.weights)):
            assert nbrs, "every node needs at least one out-link"
            assert node not in nbrs
            assert sum(weights) == pytest.approx(1.0)

