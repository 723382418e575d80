"""``repro.obs`` — the unified observability layer.

One dependency-free subsystem gives every layer of the repository the
same three primitives (DESIGN.md §7):

* a process-wide **metrics registry** (:mod:`repro.obs.registry`) —
  counters, gauges, histograms with reservoir and fixed-bucket modes,
  fed by wall-clock and simulated-clock code alike;
* a **structured tracing API** (:mod:`repro.obs.trace`) — spans and
  events as JSON-lines, with live subscribers;
* **exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.dashboard`) —
  Prometheus-style text snapshots, JSONL trace files and a terminal
  dashboard (``python -m repro.cli obs``).

The whole layer hangs off one module-level handle, :data:`OBS`.
Instrumented code guards with ``if OBS.enabled:`` (or calls the
``span``/``event``/``observe_span`` helpers, which no-op when disabled),
so the disabled cost is a predicted branch — the zero-cost contract that
``tests/test_obs_overhead.py`` enforces against the batched round
engine.

Two invariants the instrumentation must uphold:

* **zero-cost when disabled** — no allocation, no rng, no I/O on the
  disabled path (``OBS.span`` returns the shared :data:`NULL_SPAN`);
* **trace neutrality when enabled** — recording must not consume rng
  draws or alter the adversary-visible access sequence; histogram
  reservoirs carry a private deterministic rng for exactly this reason,
  and ``tests/test_obs_integration.py::TestTraceNeutrality`` pins the
  property for Waffle and all three baselines on a fixed seed.

Usage::

    from repro import obs

    obs.enable()                      # or enable(trace_path="run.jsonl")
    ...  # run any instrumented system
    emit_text(str(obs.OBS.registry.snapshot()))   # repro.obs.export
    obs.disable()

    with obs.capture() as handle:     # scoped form used by tests
        ...
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "OBS",
    "Observability",
    "Span",
    "Tracer",
    "capture",
    "clock",
    "disable",
    "enable",
]


def clock() -> float:
    """The sanctioned monotonic timestamp source for observability.

    Observers that need *timestamps* (not durations) — the timing-
    leakage observatory in :mod:`repro.analysis.timing` stamps round
    release instants — read this instead of ``time.monotonic`` directly.
    Funneling every monotonic read through one helper keeps the
    determinism audit tractable: oblint's OBL201 pass bans raw
    ``time.monotonic`` everywhere outside ``obs/`` and allows
    ``obs.clock()`` only inside ``obs/`` and ``analysis/``, so protocol
    code can never grow a hidden dependence on real time (chaos replay
    would silently stop being deterministic).
    """
    return time.monotonic()


class Observability:
    """The mutable process-wide observability handle.

    Instrumented modules import :data:`OBS` once; :func:`enable` and
    :func:`disable` mutate the handle in place so every import site sees
    the switch without re-importing.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # ------------------------------------------------------------------
    # guarded emission helpers (no-ops while disabled)
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A context-managed span, or the shared null span when disabled."""
        if self.enabled:
            return self.tracer.span(name, **attrs)
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        if self.enabled:
            self.tracer.event(name, **attrs)

    def observe_span(self, name: str, seconds: float,
                     labels: dict | None = None, **attrs) -> None:
        """Record one completed timed region into *both* pillars.

        The duration lands in the ``<name>.seconds`` histogram (labeled)
        and as a trace span record carrying ``labels`` plus ``attrs``.
        This is the workhorse of the phase instrumentation: hot paths
        take two ``perf_counter()`` readings and make one call.
        """
        if not self.enabled:
            return
        labels = labels or {}
        self.registry.histogram(name + ".seconds", **labels).observe(seconds)
        self.tracer.record_span(name, seconds, **labels, **attrs)

    def open_span(self, name: str, root: bool = False) -> int:
        """Open a region of the span tree (callers guard on ``enabled``).

        Returns the token :meth:`close_span` takes.  ``root=True`` marks
        a round boundary: the thread's stack resets so spans orphaned by
        a mid-round exception cannot corrupt later rounds' parentage.
        """
        return self.tracer.open_span(name, root=root)

    def close_span(self, token: int, seconds: float,
                   labels: dict | None = None, **attrs) -> None:
        """Close an open region into *both* pillars.

        The stack-structured sibling of :meth:`observe_span`: the span
        record is emitted with its tree position (``span_id``/``parent``)
        and the duration lands in the ``<name>.seconds`` histogram under
        ``labels``, so per-phase percentiles and the profile tree stay
        derived from one pair of ``perf_counter`` readings.
        """
        labels = labels or {}
        name = self.tracer.close_span(token, seconds, **labels, **attrs)
        self.registry.histogram(name + ".seconds", **labels).observe(seconds)

    def observe_kernel(self, kernel: str, seconds: float, items: int) -> None:
        """Profiling hook for the batched kernels (PR 1 fast path).

        Records per-call wall time into ``kernel.<name>.seconds`` plus
        call/item throughput counters.  Callers guard on
        :attr:`enabled` *before* taking perf_counter readings, so the
        disabled cost is a single branch per kernel call.
        """
        reg = self.registry
        reg.histogram("kernel." + kernel + ".seconds").observe(seconds)
        reg.counter("kernel." + kernel + ".calls.total").inc()
        reg.counter("kernel." + kernel + ".items.total").inc(items)


#: The process-wide handle every instrumented module imports.
OBS = Observability()


def enable(trace_path=None, buffer_traces: bool = True,
           reset: bool = True) -> Observability:
    """Switch observability on (in place, process-wide).

    Parameters
    ----------
    trace_path:
        Optional JSONL file that receives every trace record as it is
        emitted.
    buffer_traces:
        Keep trace records in memory for programmatic consumption.
    reset:
        Start from a fresh registry and tracer (the default); pass
        ``False`` to accumulate across enable/disable cycles.
    """
    if reset:
        OBS.registry = MetricsRegistry()
        OBS.tracer = Tracer(path=trace_path, buffer=buffer_traces)
    elif trace_path is not None:
        OBS.tracer = Tracer(path=trace_path, buffer=buffer_traces)
    OBS.enabled = True
    return OBS


def disable() -> None:
    """Switch observability off; closes the trace file sink if any.

    The registry and (in-memory) trace records remain readable for
    post-run export.
    """
    OBS.enabled = False
    OBS.tracer.close()


@contextmanager
def capture(trace_path=None, buffer_traces: bool = True):
    """Scoped :func:`enable`/:func:`disable`; yields the handle."""
    enable(trace_path=trace_path, buffer_traces=buffer_traces)
    try:
        yield OBS
    finally:
        disable()
