"""Round-release policies: *when* the serving frontend fires a round.

Waffle's guarantees cover *which* storage ids a round touches; the
timing observatory (:mod:`repro.analysis.timing`, DESIGN.md §12) showed
that *when* rounds fire is its own leakage surface.  This module makes
that surface an explicit policy object on the serving frontend:

* :class:`OnFillPolicy` — fire the moment R requests are pending.
  Lowest latency under load, but the release schedule tracks the
  arrival rate: the leaky baseline the timing attacks invert.
* :class:`MaxWaitPolicy` — on-fill plus a deadline: a partial batch
  fires once its oldest request has waited ``max_wait_s``.  The
  deployable latency/overhead compromise.
* :class:`FixedIntervalPolicy` — fire on a fixed grid regardless of
  arrivals (Cloak-style temporal shaping).  The schedule the policy
  commits to is a constant grid, so the load-inference and onset
  attacks score exactly 0.0 against it.

Policies are pure decision functions over timestamps — they never read
a clock themselves.  The frontend supplies ``now`` (``time.perf_counter``
live, :attr:`repro.sim.clock.SimClock.now` in tests), which keeps the
policies byte-for-byte testable on simulated time and keeps oblint's
determinism pass (OBL201) trivially satisfied.

The **committed release instant** is the policy's answer to
:meth:`release_time`: on-fill and max-wait release "now" (the schedule
is workload-shaped), while fixed-interval releases *the grid tick* —
sub-tick dispatch jitter is host noise below the adversary's sampling
resolution, not protocol information, and the timing oracle scores the
committed schedule.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

__all__ = [
    "FixedIntervalPolicy",
    "MaxWaitPolicy",
    "OnFillPolicy",
    "ReleasePolicy",
    "make_policy",
]


class ReleasePolicy(ABC):
    """Decides when pending requests become a Waffle round.

    The dispatcher asks :meth:`due` whether to fire given the queue
    state and the current time, :meth:`next_deadline` for the instant it
    should re-ask without new arrivals (``None`` = only arrivals can
    change the answer), and :meth:`release_time` for the instant the
    schedule commits to; :meth:`mark_release` then advances any internal
    schedule state.
    """

    #: Policy name used in metrics labels and benchmark rows.
    name: str = "abstract"

    #: Whether the policy fires rounds with an empty queue (shaped
    #: schedules do: an empty round is all fake queries, still B/B/B).
    fires_empty: bool = False

    @abstractmethod
    def due(self, pending: int, oldest_arrival: float | None,
            now: float) -> bool:
        """Should a round fire right now?"""

    @abstractmethod
    def next_deadline(self, pending: int, oldest_arrival: float | None,
                      now: float) -> float | None:
        """Earliest future instant at which :meth:`due` may flip to True."""

    def release_time(self, now: float) -> float:
        """The release instant the schedule commits to (default: now)."""
        return now

    def mark_release(self, release_time: float) -> None:
        """Advance schedule state after a round fired at ``release_time``."""


class OnFillPolicy(ReleasePolicy):
    """Fire as soon as R requests are pending — the leaky baseline.

    Pure on-fill never fires a partial batch: under light load requests
    wait until the batch fills (the frontend's close() drains
    stragglers).  Use :class:`MaxWaitPolicy` for bounded latency.
    """

    name = "on_fill"

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ConfigurationError("batch size r must be >= 1")
        self.r = r

    def due(self, pending: int, oldest_arrival: float | None,
            now: float) -> bool:
        return pending >= self.r

    def next_deadline(self, pending: int, oldest_arrival: float | None,
                      now: float) -> float | None:
        return None  # only a new arrival can fill the batch


class MaxWaitPolicy(ReleasePolicy):
    """On-fill with a straggler deadline on the oldest pending request."""

    name = "max_wait"

    def __init__(self, r: int, max_wait_s: float) -> None:
        if r < 1:
            raise ConfigurationError("batch size r must be >= 1")
        if max_wait_s <= 0:
            raise ConfigurationError("max_wait_s must be positive")
        self.r = r
        self.max_wait_s = max_wait_s

    def due(self, pending: int, oldest_arrival: float | None,
            now: float) -> bool:
        if pending >= self.r:
            return True
        if pending > 0 and oldest_arrival is not None:
            return now - oldest_arrival >= self.max_wait_s
        return False

    def next_deadline(self, pending: int, oldest_arrival: float | None,
                      now: float) -> float | None:
        if pending > 0 and oldest_arrival is not None:
            return oldest_arrival + self.max_wait_s
        return None


class FixedIntervalPolicy(ReleasePolicy):
    """Fire on a fixed grid — temporal shaping, arrivals be damned.

    The grid is ``epoch + k * interval_s``; the epoch is pinned by the
    first :meth:`due`/:meth:`next_deadline` query (the frontend's start).
    A round that overruns its tick does not trigger make-up bursts: the
    next release lands on the next *future* grid point, so committed
    gaps are always exact multiples of ``interval_s``.  With no pending
    requests the round is dispatched anyway (``fires_empty``) — an
    all-fake batch, shape-identical to a full one, which is precisely
    what decouples the schedule from the workload.
    """

    name = "fixed_interval"
    fires_empty = True

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        self.interval_s = interval_s
        self._epoch: float | None = None
        self._next_tick: float | None = None

    def _arm(self, now: float) -> None:
        if self._epoch is None:
            self._epoch = now
            self._next_tick = now + self.interval_s

    def due(self, pending: int, oldest_arrival: float | None,
            now: float) -> bool:
        self._arm(now)
        assert self._next_tick is not None
        return now >= self._next_tick

    def next_deadline(self, pending: int, oldest_arrival: float | None,
                      now: float) -> float | None:
        self._arm(now)
        return self._next_tick

    def release_time(self, now: float) -> float:
        """The grid tick this release commits to (never ``now`` itself)."""
        self._arm(now)
        assert self._epoch is not None and self._next_tick is not None
        if now < self._next_tick:  # pragma: no cover - defensive
            return self._next_tick
        # The latest grid point at or before now.
        ticks = math.floor((now - self._epoch) / self.interval_s)
        return self._epoch + max(1, ticks) * self.interval_s

    def mark_release(self, release_time: float) -> None:
        # Skip any ticks the round overran; never schedule in the past.
        self._next_tick = release_time + self.interval_s


def make_policy(name: str, r: int, max_wait_s: float = 0.01,
                interval_s: float = 0.02) -> ReleasePolicy:
    """Factory used by the CLI, benchmarks, and the chaos harness."""
    normalized = name.replace("-", "_")
    if normalized == "on_fill":
        return OnFillPolicy(r)
    if normalized == "max_wait":
        return MaxWaitPolicy(r, max_wait_s)
    if normalized == "fixed_interval":
        return FixedIntervalPolicy(interval_s)
    raise ConfigurationError(
        f"unknown release policy {name!r}; choose on-fill, max-wait "
        "or fixed-interval")
