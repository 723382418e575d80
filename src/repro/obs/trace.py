"""Structured tracing: spans and events as JSON-lines records.

A *span* is a named, timed region (``round``, ``phase.decrypt``,
``ha.checkpoint``); an *event* is a point observation (one adversary-
visible storage access, a fail-over).  Both carry free-form attributes
and serialize to one JSON object per line, so a trace file replays with
``json.loads`` per line and nothing else.

Spans form a **tree**: every span record carries a process-unique
``span_id`` and the ``parent`` id of the span that was open on the same
thread when it completed (``None`` at the root).  A region opens with
:meth:`Tracer.open_span`, which pushes it on a per-thread stack, and
:meth:`Tracer.close_span` pops it and builds its record — the one place
a span record is made.  The round engine uses this to nest
``round -> phase.*``, which :mod:`repro.obs.profile` re-assembles into a
flamegraph-style report.
The stack is thread-local because a served round runs on the round
thread while the event loop thread records its own spans.

The tracer buffers records in memory (bounded), optionally streams them
to a fresh JSONL file, and fans every record out to registered subscribers —
that last hook is how a live :class:`~repro.analysis.adversary.Adversary`
consumes the storage-access stream without the storage layer knowing the
adversary exists.

Trace neutrality: emitting a record reads ``time.perf_counter`` and
appends to lists; it never draws randomness and never touches system
state, so an instrumented run is byte-identical to an uninstrumented one
on the adversary-visible channel (enforced by
``tests/test_obs_integration.py::TestTraceNeutrality``).
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Any, Callable

__all__ = ["Tracer", "jsonl_line"]

#: Default in-memory record cap; oldest records are dropped beyond it so
#: week-long runs cannot exhaust memory (file sinks keep everything).
_DEFAULT_MAX_RECORDS = 200_000


def _jsonable(value: Any) -> Any:
    """Replace non-finite floats with their string spellings, recursively.

    ``json.dumps`` emits bare ``Infinity``/``NaN`` for non-finite floats
    — tokens no JSON parser is required to accept, so a single
    zero-width-window ``inf`` from the throughput meter would poison a
    whole trace file.  The exporters encode them as ``"+Inf"``,
    ``"-Inf"`` and ``"NaN"`` strings instead (matching the Prometheus
    text spelling), keeping every line ``json.loads``-clean.
    """
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return value
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def jsonl_line(record: dict) -> str:
    """Serialize one trace record as a strictly-valid JSON line."""
    return json.dumps(_jsonable(record), default=str, allow_nan=False)


class Tracer:
    """Collects span/event records; buffers, streams and fans out.

    Parameters
    ----------
    path:
        Optional JSONL file, truncated on open; every record is written
        to it as it is emitted.
    max_records:
        In-memory cap; the buffer drops its oldest half when full.
    """

    __slots__ = ("records", "dropped", "_file", "_subscribers",
                 "_max_records", "_seq", "_next_span_id", "_local")

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 max_records: int = _DEFAULT_MAX_RECORDS) -> None:
        self.records: list[dict] = []
        self.dropped = 0
        self._file = open(path, "w", encoding="utf-8") if path else None
        self._subscribers: list[Callable[[dict], None]] = []
        self._max_records = max_records
        self._seq = 0
        self._next_span_id = 1
        self._local = threading.local()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, record: dict) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.records.append(record)
        if len(self.records) > self._max_records:
            keep = self._max_records // 2
            self.dropped += len(self.records) - keep
            self.records = self.records[-keep:]
        if self._file is not None:
            self._file.write(jsonl_line(record) + "\n")
        for subscriber in self._subscribers:
            subscriber(record)

    def _stack(self) -> list:
        """This thread's open-span stack of ``(span_id, name)`` pairs."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, name: str, root: bool = False) -> int:
        """Open a nested region; returns a token for :meth:`close_span`.

        Nothing is emitted until the span closes — only the (thread-
        local) stack is touched, so an open region costs one append.
        ``root=True`` clears this thread's stack first: round engines use
        it at round entry so a span left open by a mid-round exception
        (chaos fault injection) cannot corrupt later rounds' parentage.
        """
        stack = self._stack()
        if root:
            stack.clear()
        span_id = self._next_span_id
        self._next_span_id += 1
        stack.append((span_id, name))
        return span_id

    def close_span(self, token: int, seconds: float, **attrs: Any) -> str:
        """Close an open region and emit its record; returns its name.

        Pops the stack down to (and including) ``token``, tolerating
        spans orphaned by exceptions; the record's ``parent`` is the
        span left innermost, ``None`` at the root.
        """
        stack = self._stack()
        name = ""
        while stack:
            span_id, span_name = stack.pop()
            if span_id == token:
                name = span_name
                break
        parent = stack[-1][0] if stack else None
        self.emit({"kind": "span", "name": name, "dur": seconds,
                   "span_id": token, "parent": parent, "attrs": attrs})
        return name

    def event(self, name: str, **attrs: Any) -> None:
        self.emit({"kind": "event", "name": name, "attrs": attrs})

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[dict], None]) -> None:
        """Register ``callback(record)`` for every future record."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], None]) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def spans(self, name: str | None = None) -> list[dict]:
        return [r for r in self.records if r["kind"] == "span"
                and (name is None or r["name"] == name)]

    def events(self, name: str | None = None) -> list[dict]:
        return [r for r in self.records if r["kind"] == "event"
                and (name is None or r["name"] == name)]

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
