"""Known-answer fixtures for the statistics toolkit."""

from __future__ import annotations

import math

import pytest

from tests.stats import ks_exponential, ks_statistic, percentile
from repro.errors import ConfigurationError
from repro.seeding import seeded_rng

DATA = [12.0, 7.0, 3.0, 9.0, 15.0, 4.0, 8.0, 11.0, 2.0, 6.0]


class TestPercentile:
    def test_known_answers(self):
        assert percentile(DATA, 50.0) == pytest.approx(7.5)
        assert percentile(DATA, 25.0) == pytest.approx(4.5)
        assert percentile(DATA, 90.0) == pytest.approx(12.3)
        assert percentile(DATA, 0.0) == 2.0
        assert percentile(DATA, 100.0) == 15.0

    def test_matches_numpy_linear_method(self):
        numpy = pytest.importorskip("numpy")
        for q in (0.0, 10.0, 33.3, 50.0, 75.0, 99.0, 100.0):
            assert percentile(DATA, q) == pytest.approx(
                float(numpy.percentile(DATA, q)))

    def test_single_sample(self):
        assert percentile([42.0], 99.0) == 42.0

    def test_does_not_mutate_input(self):
        data = [3.0, 1.0, 2.0]
        percentile(data, 50.0)
        assert data == [3.0, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)
        with pytest.raises(ConfigurationError):
            percentile(DATA, 101.0)


class TestKsStatistic:
    def test_known_answer_uniform(self):
        # F_n steps at .25/.5/.75/1; sup gap vs F(x)=x is at x=0.4.
        assert ks_statistic([0.1, 0.4, 0.6, 0.9],
                            lambda x: x) == pytest.approx(0.15)

    def test_perfect_fit_scores_near_zero(self):
        n = 1000
        # Samples placed at the midpoints of F's quantile cells.
        samples = [(i + 0.5) / n for i in range(n)]
        assert ks_statistic(samples, lambda x: x) <= 0.5 / n + 1e-12

    def test_gross_mismatch_scores_near_one(self):
        assert ks_statistic([10.0, 11.0, 12.0],
                            lambda x: 0.0 if x < 100 else 1.0) == \
            pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ks_statistic([], lambda x: x)


class TestKsExponential:
    def test_known_answer(self):
        statistic, critical = ks_exponential([1.0, 1.0, 1.0, 1.0], 1.0)
        assert statistic == pytest.approx(1.0 - math.exp(-1.0))
        assert critical == pytest.approx(1.358 / 2.0)

    def test_true_exponential_passes(self):
        rng = seeded_rng(77)
        samples = [-math.log(1.0 - rng.random()) / 50.0
                   for _ in range(4000)]
        statistic, critical = ks_exponential(samples, 50.0)
        assert statistic < critical

    def test_wrong_rate_fails(self):
        rng = seeded_rng(77)
        samples = [-math.log(1.0 - rng.random()) / 50.0
                   for _ in range(4000)]
        statistic, critical = ks_exponential(samples, 80.0)
        assert statistic > critical

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ks_exponential([1.0], 0.0)
