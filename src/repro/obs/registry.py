"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the numeric half of :mod:`repro.obs`.  It carries
wall-clock series only: instrumented code observes ``time.perf_counter``
deltas, and the simulated seconds of :mod:`repro.sim` never enter it — a
metric is just a named stream of values plus low-cardinality labels.

Design points:

* **Labels** make metric names comparable across systems: every proxy
  records ``round.seconds`` and the ``system=waffle|pancake|...`` label
  distinguishes them, so dashboards and exporters can place the systems
  side by side without name translation tables.
* **Histograms** keep a bounded uniform sample (Vitter's algorithm R)
  for percentile queries and export as Prometheus summaries.  The
  reservoir uses a *private* deterministic :class:`random.Random` so
  that observability never consumes a draw from any system or workload
  rng — the trace-neutrality invariant (DESIGN.md §7) depends on this.
* The registry itself has no dependencies on the rest of the package, so
  every layer (crypto kernels included) may import it freely.

Counter/gauge updates are plain attribute arithmetic; under CPython's
GIL that is safe enough for dashboard-grade accuracy, which is all the
observability layer promises.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default reservoir capacity; enough for stable p99 estimates.
_DEFAULT_RESERVOIR = 1024


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that goes up and down (cache size, standby lag, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Distribution of observed values as a bounded uniform sample.

    Count, sum, min and max are exact; percentiles are exact until
    ``reservoir_size`` observations and sampled after.
    """

    __slots__ = ("count", "total", "min", "max",
                 "_samples", "_capacity", "_rng")
    kind = "histogram"

    def __init__(self, reservoir_size: int = _DEFAULT_RESERVOIR) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir size must be positive")
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._capacity = reservoir_size
        # Private deterministic rng: observability must never consume a
        # draw from a system/workload rng (trace neutrality).
        self._rng = random.Random(0x0B5E7)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:  # Vitter's algorithm R
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, round(q * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_name(name: str, labels: tuple) -> str:
    """Human/JSON rendering: ``name{k=v,...}`` (bare name when unlabeled)."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """Named, labeled metrics with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the live metric object, so
    hot paths may hold a reference instead of re-resolving the name.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        #: (name, label tuple) -> metric object
        self._metrics: dict[tuple[str, tuple], object] = {}

    def _get(self, name: str, factory: Callable[[], Any],
             labels: dict[str, object]) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        metric = self._get(name, Counter, labels)
        if metric.kind != "counter":
            raise ValueError(f"{name!r} already registered as {metric.kind}")
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        metric = self._get(name, Gauge, labels)
        if metric.kind != "gauge":
            raise ValueError(f"{name!r} already registered as {metric.kind}")
        return metric

    def histogram(self, name: str, **labels: object) -> Histogram:
        metric = self._get(name, Histogram, labels)
        if metric.kind != "histogram":
            raise ValueError(f"{name!r} already registered as {metric.kind}")
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[str, tuple[Any, ...], Any]]:
        """Yield ``(name, label tuple, metric)`` sorted by name."""
        for (name, labels), metric in sorted(self._metrics.items()):
            yield name, labels, metric

    def clear(self) -> None:
        self._metrics.clear()

    def snapshot(self) -> dict:
        """JSON-able state of every metric, grouped by kind."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, labels, metric in self:
            rendered = render_name(name, labels)
            out[metric.kind + "s"][rendered] = metric.snapshot()
        return out
