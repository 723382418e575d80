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
  arrivals (Cloak-style temporal shaping), empty queue included.  The
  schedule the policy commits to is a constant grid, so the
  load-inference and onset attacks score exactly 0.0 against it.

Policies are pure decision functions over timestamps — they never read
a clock themselves.  The caller supplies ``now``: the frontend's round
thread on ``time.perf_counter``, and
:func:`repro.analysis.timing.replay_schedule` on simulated time, so the
timing observatory scores the very objects the server runs.

The **committed release instant** is what :meth:`ReleasePolicy.release`
returns: on-fill and max-wait commit to "now" (the schedule is
workload-shaped), while fixed-interval commits to *the grid tick* —
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

    The dispatcher asks :meth:`next_release` once per look at the queue
    and, when the answer is at or before ``now``, takes up to R requests
    and calls :meth:`release` for the instant the schedule commits to.
    """

    #: Policy name used in metrics labels and benchmark rows.
    name: str = "abstract"

    @abstractmethod
    def next_release(self, pending: int, oldest_arrival: float | None,
                     now: float) -> float | None:
        """When this queue state is released: an instant at or before
        ``now`` means now, and ``None`` means only an arrival can change
        the answer."""

    def release(self, now: float) -> float:
        """Commit a round released at ``now``; returns the committed
        instant (default: ``now`` itself)."""
        return now


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

    def next_release(self, pending: int, oldest_arrival: float | None,
                     now: float) -> float | None:
        return now if pending >= self.r else None


class MaxWaitPolicy(OnFillPolicy):
    """On-fill with a straggler deadline on the oldest pending request."""

    name = "max_wait"

    def __init__(self, r: int, max_wait_s: float) -> None:
        super().__init__(r)
        if max_wait_s <= 0:
            raise ConfigurationError("max_wait_s must be positive")
        self.max_wait_s = max_wait_s

    def next_release(self, pending: int, oldest_arrival: float | None,
                     now: float) -> float | None:
        if pending >= self.r:
            return now
        if pending and oldest_arrival is not None:
            return oldest_arrival + self.max_wait_s
        return None


class FixedIntervalPolicy(ReleasePolicy):
    """Fire on a fixed grid — temporal shaping, arrivals be damned.

    The grid is ``epoch + k * interval_s``; the epoch is pinned by the
    first query (the frontend's first look at its queue).  The tick is
    kept as the integer ``k``, so a committed instant is always a grid
    point and never repeats.  A round that overruns its tick does not
    trigger make-up bursts: the next release lands on the latest grid
    point at or before the dispatch, so committed gaps are always exact
    multiples of ``interval_s``.  With no pending requests the round is
    dispatched anyway — an all-fake batch, shape-identical to a full
    one, which is precisely what decouples the schedule from the
    workload.
    """

    name = "fixed_interval"

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        self.interval_s = interval_s
        self._epoch: float | None = None
        #: index of the next grid point the schedule may commit to
        self._tick = 1

    def next_release(self, pending: int, oldest_arrival: float | None,
                     now: float) -> float | None:
        if self._epoch is None:
            self._epoch = now
        return self._epoch + self._tick * self.interval_s

    def release(self, now: float) -> float:
        """The grid tick this release commits to (never ``now`` itself):
        the latest at or before ``now``, or the next one when ``now`` is
        early (a drain on close)."""
        if self._epoch is None:
            self._epoch = now
        tick = max(self._tick,
                   math.floor((now - self._epoch) / self.interval_s))
        self._tick = tick + 1
        return self._epoch + tick * self.interval_s


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
