"""Open-loop arrival processes: *when* requests arrive, not just what.

Closed-loop drivers (each client waits for its reply before issuing the
next request) self-throttle under overload and never exercise the
serving frontend's admission policy.  An **open-loop** population fires
on its own schedule regardless of server progress — the arrival model
behind every "throughput vs offered load" curve and the input the
timing adversary correlates release schedules against.

Two processes, both seeded and fully deterministic per seed:

* :class:`PoissonArrivals` — homogeneous Poisson at ``rate`` req/s
  (i.i.d. exponential inter-arrivals via inverse CDF).  The null model:
  memoryless, no structure for an adversary beyond the mean rate.
* :class:`FlashCrowdArrivals` — Poisson background plus a burst window
  during which the rate multiplies by ``spike_factor`` *and* key choice
  collapses onto a small hot set (the "everyone loads the same page"
  event).  The onset-detection attack (§12) hunts for exactly this.

Every generator exposes ``rate_at(t)``, the ground-truth instantaneous
rate, which the serving harness feeds to
:func:`repro.analysis.timing.load_inference_attack` as the true-rate
series — attack scores are then measured against *known* ground truth
rather than an estimate of it.

Arrivals are offsets from the stream's start (t=0); callers anchor them
on whatever clock drives the frontend.  Operations follow a seeded
read/write mix over a ``key_name``-style key space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.seeding import seeded_rng
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name

__all__ = [
    "Arrival",
    "FlashCrowdArrivals",
    "PoissonArrivals",
]


@dataclass(frozen=True, slots=True)
class Arrival:
    """One open-loop event: fire ``op`` on ``key`` at offset ``at`` seconds."""

    at: float
    op: Operation
    key: str


class _ArrivalStream:
    """Shared machinery: seeded RNGs and the op/key draw."""

    def __init__(self, n_keys: int, seed: int | None,
                 read_fraction: float) -> None:
        if n_keys < 1:
            raise ConfigurationError("n_keys must be >= 1")
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        self.n_keys = n_keys
        self.read_fraction = read_fraction
        # Independent streams so changing the op mix never perturbs the
        # arrival times (and vice versa) for a fixed seed.
        self._time_rng = seeded_rng(seed, stream=0)
        self._pick_rng = seeded_rng(seed, stream=1)

    def _draw(self, at: float, key_index: int) -> Arrival:
        op = (Operation.READ
              if self._pick_rng.random() < self.read_fraction
              else Operation.WRITE)
        # Canonical fixed-width names, so arrivals address the same key
        # space every other workload generator (and the chaos harness'
        # initial datasets) use.
        return Arrival(at=at, op=op, key=key_name(key_index))

    def _uniform_key(self) -> int:
        return self._pick_rng.randrange(self.n_keys)


class PoissonArrivals(_ArrivalStream):
    """Homogeneous Poisson arrivals at ``rate`` requests per second."""

    name = "poisson"

    def __init__(self, rate: float, n_keys: int, *, seed: int | None = None,
                 read_fraction: float = 0.5) -> None:
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        super().__init__(n_keys, seed, read_fraction)
        self.rate = rate

    def rate_at(self, t: float) -> float:
        """Ground-truth instantaneous arrival rate (constant)."""
        return self.rate

    def generate(self, duration_s: float) -> list[Arrival]:
        """All arrivals in ``[0, duration_s)``, in time order."""
        arrivals: list[Arrival] = []
        t = 0.0
        while True:
            # Inverse-CDF exponential; random() is in [0, 1) so the
            # complement is in (0, 1] and log() is always defined.
            t += -math.log(1.0 - self._time_rng.random()) / self.rate
            if t >= duration_s:
                return arrivals
            arrivals.append(self._draw(t, self._uniform_key()))


class FlashCrowdArrivals(_ArrivalStream):
    """Poisson background with a hot-key burst window.

    Inside ``[burst_start, burst_start + burst_duration)`` the rate is
    ``base_rate * spike_factor`` and, with probability ``hot_fraction``,
    the key is drawn from the first ``hot_keys`` indices instead of the
    whole space — load *and* popularity spike together, like a breaking
    news page.  Outside the window it is plain Poisson at ``base_rate``.
    """

    name = "flash_crowd"

    def __init__(self, base_rate: float, n_keys: int, *,
                 spike_factor: float = 8.0, burst_start: float = 0.0,
                 burst_duration: float = 1.0, hot_keys: int = 4,
                 hot_fraction: float = 0.9, seed: int | None = None,
                 read_fraction: float = 0.5) -> None:
        if base_rate <= 0:
            raise ConfigurationError("base_rate must be positive")
        if spike_factor < 1:
            raise ConfigurationError("spike_factor must be >= 1")
        if burst_duration <= 0:
            raise ConfigurationError("burst_duration must be positive")
        if not 1 <= hot_keys <= n_keys:
            raise ConfigurationError("hot_keys must be in [1, n_keys]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in [0, 1]")
        super().__init__(n_keys, seed, read_fraction)
        self.base_rate = base_rate
        self.spike_factor = spike_factor
        self.burst_start = burst_start
        self.burst_duration = burst_duration
        self.hot_keys = hot_keys
        self.hot_fraction = hot_fraction

    def in_burst(self, t: float) -> bool:
        return self.burst_start <= t < self.burst_start + self.burst_duration

    def rate_at(self, t: float) -> float:
        """Ground-truth instantaneous arrival rate at offset ``t``."""
        return self.base_rate * (self.spike_factor if self.in_burst(t)
                                 else 1.0)

    def generate(self, duration_s: float) -> list[Arrival]:
        peak = self.base_rate * self.spike_factor
        arrivals: list[Arrival] = []
        t = 0.0
        while True:
            t += -math.log(1.0 - self._time_rng.random()) / peak
            if t >= duration_s:
                return arrivals
            if self._time_rng.random() * peak > self.rate_at(t):
                continue  # thinned: outside the burst most candidates drop
            if self.in_burst(t) \
                    and self._pick_rng.random() < self.hot_fraction:
                key_index = self._pick_rng.randrange(self.hot_keys)
            else:
                key_index = self._uniform_key()
            arrivals.append(self._draw(t, key_index))
