"""Online α monitoring for deployed systems (§8.4).

"Even after deploying, an application can monitor the α values
observable to an adversary and can fine-tune parameters such as B, R,
f_D, or C."  This module is that monitor: an online consumer of server
accesses that tracks, per sliding window of rounds,

* the maximum observed α,
* the number of ids written but not yet read ("aging" ids, the low-
  security configuration's failure mode), and
* a breach flag against a configured α budget,

in O(1) memory per outstanding id — suitable to run inside the proxy.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.trace import Tracer
    from repro.storage.recording import AccessRecord

__all__ = ["AlphaMonitor", "WindowReport", "attach_monitor"]


@dataclass(frozen=True, slots=True)
class WindowReport:
    """Summary of one completed monitoring window."""

    window_start_round: int
    window_end_round: int
    max_alpha: int | None
    samples: int
    outstanding_ids: int
    oldest_outstanding_age: int
    budget_breached: bool


class AlphaMonitor:
    """Streams server accesses; reports per-window α statistics.

    Parameters
    ----------
    alpha_budget:
        The α value the operator wants never exceeded (typically the
        theoretical bound, or a tighter internal target).
    window_rounds:
        Rounds per reporting window.
    """

    def __init__(self, alpha_budget: int, window_rounds: int = 100) -> None:
        if alpha_budget < 0 or window_rounds < 1:
            raise ConfigurationError("invalid monitor parameters")
        self.alpha_budget = alpha_budget
        self.window_rounds = window_rounds
        self._write_round: dict[str, int] = {}
        self._current_round = 0
        self._window_alphas: Counter = Counter()
        self._window_start = 0
        self._reports: deque[WindowReport] = deque(maxlen=64)
        self.total_breaches = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def observe_write(self, storage_id: str, round_index: int) -> None:
        self._advance(round_index)
        self._write_round[storage_id] = round_index

    def observe_read(self, storage_id: str, round_index: int) -> int | None:
        """Feed a read; returns the id's α if its write was observed."""
        self._advance(round_index)
        born = self._write_round.pop(storage_id, None)
        if born is None:
            return None
        alpha = round_index - born - 1
        self._window_alphas[alpha] += 1
        return alpha

    def _advance(self, round_index: int) -> None:
        if round_index < self._current_round:
            raise ConfigurationError("rounds must be monotone")
        while round_index >= self._window_start + self.window_rounds:
            self._close_window(self._window_start + self.window_rounds - 1)
        self._current_round = round_index

    def _close_window(self, end_round: int) -> None:
        max_alpha = max(self._window_alphas) if self._window_alphas else None
        oldest = 0
        if self._write_round:
            oldest = end_round - min(self._write_round.values())
        breached = (max_alpha is not None and max_alpha > self.alpha_budget) \
            or oldest > self.alpha_budget
        if breached:
            self.total_breaches += 1
        self._reports.append(WindowReport(
            window_start_round=self._window_start,
            window_end_round=end_round,
            max_alpha=max_alpha,
            samples=sum(self._window_alphas.values()),
            outstanding_ids=len(self._write_round),
            oldest_outstanding_age=oldest,
            budget_breached=breached,
        ))
        self._window_alphas = Counter()
        self._window_start = end_round + 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[WindowReport]:
        return list(self._reports)

    @property
    def outstanding_ids(self) -> int:
        return len(self._write_round)

    def feed_records(self, records: Iterable[AccessRecord]) -> None:
        """Convenience: replay a recorded trace through the monitor."""
        for record in records:
            if record.op == "write":
                self.observe_write(record.storage_id, record.round)
            elif record.op == "read":
                self.observe_read(record.storage_id, record.round)


def attach_monitor(tracer: Tracer,
                   monitor: AlphaMonitor) -> Callable[[dict], None]:
    """Feed ``monitor`` live from a tracer's ``storage.access`` events.

    Subscribes to the tracer (``repro.obs.Tracer``) and routes each
    ``storage.access`` event — emitted by
    :class:`repro.storage.recording.RecordingStore` — into the monitor,
    realizing the paper's "monitor α after deploying" (§8.4) without a
    second pass over the recorded trace.  Returns the subscriber callback
    so callers can detach it later (``tracer.unsubscribe``).
    """

    def _on_record(record: dict) -> None:
        if record.get("kind") != "event" or record.get("name") != "storage.access":
            return
        attrs = record.get("attrs", {})
        op = attrs.get("op")
        if op == "write":
            monitor.observe_write(attrs["id"], attrs["round"])
        elif op == "read":
            monitor.observe_read(attrs["id"], attrs["round"])

    tracer.subscribe(_on_record)
    return _on_record
