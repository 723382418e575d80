"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_name,
)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0


class TestHistogramReservoir:
    def test_exact_percentiles_small_n(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(0.50) == 50.0
        assert hist.percentile(0.99) == 99.0
        assert hist.min == 1.0 and hist.max == 100.0

    def test_reservoir_bounds_memory(self):
        hist = Histogram(reservoir_size=64)
        for value in range(10_000):
            hist.observe(float(value))
        assert hist.count == 10_000
        assert len(hist._samples) == 64
        # The sample stays representative: median within the bulk.
        assert 1_000 < hist.percentile(0.5) < 9_000

    def test_reservoir_rng_is_private(self):
        """Observing must not consume draws from the global rng
        (trace-neutrality: instrumentation cannot perturb workloads)."""
        import random

        random.seed(123)
        expected = random.random()
        random.seed(123)
        hist = Histogram(reservoir_size=2)
        for value in range(1000):
            hist.observe(float(value))
        assert random.random() == expected

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.percentile(0.99) == 0.0
        assert hist.mean == 0.0
        assert hist.snapshot()["count"] == 0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("requests.total", system="waffle")
        b = registry.counter("requests.total", system="waffle")
        assert a is b

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("requests.total", system="waffle").inc(3)
        registry.counter("requests.total", system="pancake").inc(5)
        snap = registry.snapshot()["counters"]
        assert snap["requests.total{system=pancake}"] == 5
        assert snap["requests.total{system=waffle}"] == 3

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", a="1", b="2")
        b = registry.counter("x", b="2", a="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric.name")
        with pytest.raises(ValueError):
            registry.gauge("metric.name")
        with pytest.raises(ValueError):
            registry.histogram("metric.name")

    def test_iteration_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        names = [name for name, _, _ in registry]
        assert names == sorted(names)

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2}
        assert snap["histograms"]["h"]["count"] == 1

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert len(registry) == 0

    def test_render_name(self):
        assert render_name("plain", ()) == "plain"
        assert render_name("x", (("a", "1"),)) == "x{a=1}"
