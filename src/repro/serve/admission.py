"""Admission control: the bounded pending queue and its shedding stats.

An open-loop client population does not slow down when the proxy falls
behind — arrivals keep coming, and an unbounded pending queue converts
overload into unbounded latency and memory.  The serving frontend
therefore admits a request only while the pending queue is below a hard
cap; past the cap the request is **shed** with
:class:`~repro.errors.OverloadedError` — retryable by taxonomy, and
invisible to the adversary (a shed request never reaches the proxy, so
the storage-visible trace is byte-identical with or without shedding;
``tests/test_serve_backpressure.py`` pins exactly that digest).

The controller is deliberately dumb bookkeeping — no lock of its own
(the frontend calls it under its lock), no timers — so the property
tests can drive it
directly: depth never exceeds ``cap``, and ``admitted + shed`` accounts
for every offered request.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, OverloadedError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-queue admission bookkeeping for the serving frontend.

    Parameters
    ----------
    cap:
        Maximum pending (admitted but not yet dispatched) requests.
    """

    __slots__ = ("cap", "depth", "admitted", "shed", "high_water")

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ConfigurationError("admission cap must be >= 1")
        self.cap = cap
        #: Current pending depth (mirrors the frontend's queue length).
        self.depth = 0
        self.admitted = 0
        self.shed = 0
        #: Highest depth ever observed — the cap property's witness.
        self.high_water = 0

    def admit(self) -> None:
        """Account one arriving request; raises when the queue is full."""
        if self.depth >= self.cap:
            self.shed += 1
            raise OverloadedError(
                f"pending queue at cap ({self.cap}); retry later")
        self.depth += 1
        self.admitted += 1
        if self.depth > self.high_water:
            self.high_water = self.depth

    def release(self, count: int) -> None:
        """Account ``count`` requests leaving the queue for a round."""
        if count < 0 or count > self.depth:  # pragma: no cover - invariant
            raise ConfigurationError(
                f"cannot release {count} of {self.depth} pending")
        self.depth -= count

    def snapshot(self) -> dict:
        """Stats row for dashboards, benchmark reports and STATS replies."""
        return {
            "cap": self.cap,
            "depth": self.depth,
            "admitted": self.admitted,
            "shed": self.shed,
            "high_water": self.high_water,
        }
