"""``repro.obs`` — the unified observability layer.

One dependency-free subsystem gives every layer of the repository the
same three primitives (DESIGN.md §7):

* a process-wide **metrics registry** (:mod:`repro.obs.registry`) —
  counters, gauges and reservoir histograms of wall-clock series;
* a **structured tracing API** (:mod:`repro.obs.trace`) — spans and
  events as JSON-lines, with live subscribers;
* **exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.dashboard`,
  :mod:`repro.obs.profile`) — Prometheus-style text snapshots, a
  terminal dashboard and a span-tree profile (``python -m repro.cli
  obs``); ``enable(trace_path=...)`` streams the JSONL trace.

The whole layer hangs off one module-level handle, :data:`OBS`.
Instrumented code guards with ``if OBS.enabled:`` before it reads a
clock (``event`` and ``observe_span`` also no-op when disabled), so the
disabled cost is a predicted branch — the zero-cost contract that
``tests/test_obs_overhead.py`` enforces against the batched round
engine.  A span is recorded one way: ``open_span`` then ``close_span``
(``observe_span`` is the two in one call, for a region with no
children).

Two invariants the instrumentation must uphold:

* **zero-cost when disabled** — no allocation, no rng, no I/O on the
  disabled path (a disabled round leaves the registry and the tracer
  empty);
* **trace neutrality when enabled** — recording must not consume rng
  draws or alter the adversary-visible access sequence; histogram
  reservoirs carry a private deterministic rng for exactly this reason,
  and ``tests/test_obs_integration.py::TestTraceNeutrality`` pins the
  property for Waffle and all three baselines on a fixed seed.

Usage::

    from repro import obs

    obs.enable()                      # or enable(trace_path="run.jsonl")
    ...  # run any instrumented system
    text = render_prometheus(obs.OBS.registry)   # repro.obs.export
    obs.disable()

    with obs.capture() as handle:     # scoped form used by tests
        ...
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Observability",
    "Tracer",
    "capture",
    "clock",
    "disable",
    "enable",
]


def clock() -> float:
    """The sanctioned monotonic timestamp source for observability.

    Observers that need *timestamps* (not durations) — a live
    :class:`repro.analysis.Adversary` stamps round release instants —
    read this instead of ``time.monotonic`` directly.
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
    def event(self, name: str, **attrs: Any) -> None:
        if self.enabled:
            self.tracer.event(name, **attrs)

    def observe_span(self, name: str, seconds: float,
                     labels: dict | None = None, **attrs: Any) -> None:
        """Record one completed, childless region into *both* pillars.

        :meth:`close_span` of a span opened just now: the record parents
        under this thread's innermost open span, and the duration lands
        in the ``<name>.seconds`` histogram under ``labels``.  Hot paths
        take two ``perf_counter()`` readings and make one call.
        """
        if self.enabled:
            self.close_span(self.open_span(name), seconds, labels, **attrs)

    def open_span(self, name: str, root: bool = False) -> int:
        """Open a region of the span tree (callers guard on ``enabled``).

        Returns the token :meth:`close_span` takes.  ``root=True`` marks
        a round boundary: the thread's stack resets so spans orphaned by
        a mid-round exception cannot corrupt later rounds' parentage.
        """
        return self.tracer.open_span(name, root=root)

    def close_span(self, token: int, seconds: float,
                   labels: dict | None = None, **attrs: Any) -> None:
        """Close an open region into *both* pillars.

        The span record is emitted with its tree position
        (``span_id``/``parent``) and the duration lands in the
        ``<name>.seconds`` histogram under ``labels``, so per-phase
        percentiles and the profile tree stay derived from one pair of
        ``perf_counter`` readings.
        """
        labels = labels or {}
        name = self.tracer.close_span(token, seconds, **labels, **attrs)
        self.registry.histogram(name + ".seconds", **labels).observe(seconds)


#: The process-wide handle every instrumented module imports.
OBS = Observability()


def enable(trace_path: str | os.PathLike[str] | None = None
           ) -> Observability:
    """Switch observability on (in place, process-wide).

    Starts from a fresh registry and tracer; ``trace_path`` names an
    optional JSONL file, truncated, that receives every trace record as
    it is emitted.
    """
    OBS.registry = MetricsRegistry()
    OBS.tracer = Tracer(path=trace_path)
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
def capture(trace_path: str | os.PathLike[str] | None = None
            ) -> Iterator[Observability]:
    """Scoped :func:`enable`/:func:`disable`; yields the handle."""
    enable(trace_path=trace_path)
    try:
        yield OBS
    finally:
        disable()
