"""Tests for α-histogram construction and comparison."""

from collections import Counter

import pytest

from repro.analysis import Adversary
from repro.analysis.histograms import histogram_difference, render_histogram


class TestAlphaHistogram:
    def test_counts_values(self):
        adv = Adversary()
        for op, sid, round_index in (
                ("write", "a", 0), ("write", "c", 0), ("write", "d", 0),
                ("read", "a", 1), ("write", "e", 1),
                ("read", "c", 2), ("write", "b", 2), ("write", "f", 2),
                ("read", "b", 3), ("read", "d", 4), ("read", "e", 5),
                ("read", "f", 6)):
            adv.observe(op, sid, round_index)
        assert adv.alpha_histogram == Counter({0: 2, 1: 1, 3: 3})

    def test_empty(self):
        assert Adversary().alpha_histogram == Counter()


class TestHistogramDifference:
    def test_identical_histograms(self):
        hist = Counter({0: 100, 1: 50})
        comparison = histogram_difference(hist, Counter(hist))
        assert comparison.total_difference == 0
        assert comparison.differing_fraction == 0.0
        assert comparison.mean_bucket_difference == 0.0

    def test_disjoint_histograms(self):
        comparison = histogram_difference(Counter({0: 10}), Counter({5: 10}))
        assert comparison.total_difference == 20
        assert comparison.differing_fraction == 1.0
        assert comparison.buckets == 2

    def test_partial_overlap(self):
        first = Counter({0: 100, 1: 100})
        second = Counter({0: 90, 1: 110})
        comparison = histogram_difference(first, second)
        assert comparison.total_difference == 20
        assert comparison.differing_fraction == pytest.approx(0.05)
        assert comparison.mean_bucket_difference == pytest.approx(10.0)

    def test_empty_histograms(self):
        comparison = histogram_difference(Counter(), Counter())
        assert comparison.buckets == 0
        assert comparison.differing_fraction == 0.0

    def test_differing_fraction_matches_paper_semantics(self):
        """'x% of requests differ in their αs' = total variation."""
        first = Counter({0: 990, 1: 10})
        second = Counter({0: 980, 1: 20})
        comparison = histogram_difference(first, second)
        assert comparison.differing_fraction == pytest.approx(0.01)


class TestRendering:
    def test_render_nonempty(self):
        out = render_histogram(Counter({0: 5, 2: 10}))
        assert "alpha=" in out and "#" in out

    def test_render_empty(self):
        assert "empty" in render_histogram(Counter())

    def test_render_truncates(self):
        hist = Counter({i: 1 for i in range(100)})
        out = render_histogram(hist, max_rows=5)
        assert "more buckets" in out
