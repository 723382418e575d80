"""Closed-loop client simulation: latency *distributions*, not just means.

The paper reports average latency; operators care about tails.  This
module runs a discrete-event simulation of ``T`` closed-loop clients
(each issues a request, waits for its response, thinks, repeats) against
a batching proxy whose round time comes from the calibrated cost model,
and records per-request latencies including the real queueing effects
the harness's analytic model averages away:

* a request waits until the current batch round *completes*;
* a round dispatches when ``R`` requests are pending (or when the
  round-timeout fires — Waffle's "waits to receive R client requests"
  has to be bounded in practice, and the timeout's latency effect is
  visible in the p99).

This is a deliberately small single-server queueing model — enough to
produce honest percentile tables for the latency example/bench without
pretending to be a network simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.seeding import seeded_rng
from repro.sim.metrics import LatencyRecorder, LatencySummary

__all__ = ["ClosedLoopResult", "simulate_closed_loop"]


@dataclass(frozen=True, slots=True)
class ClosedLoopResult:
    """Outcome of one closed-loop simulation."""

    requests: int
    rounds: int
    duration_s: float
    throughput_ops: float
    latency: LatencySummary
    timeout_dispatches: int


def simulate_closed_loop(round_time_s: float, batch_capacity: int,
                         clients: int, think_time_s: float = 0.0,
                         round_timeout_s: float | None = None,
                         duration_s: float = 10.0,
                         exponential_think: bool = False,
                         seed: int | None = None) -> ClosedLoopResult:
    """Simulate ``clients`` closed-loop clients against a batching proxy.

    Parameters
    ----------
    round_time_s:
        Service time of one batch round (from the cost model).
    batch_capacity:
        R — requests the proxy waits for before dispatching.
    clients:
        Closed-loop population.
    think_time_s:
        Client think time between response and next request.  With
        ``exponential_think`` it is the *mean* of an exponential draw,
        which de-synchronizes the client population (otherwise a batch's
        clients stay in lockstep and every percentile coincides).
    round_timeout_s:
        Dispatch a partial batch after this long with at least one
        pending request.  Defaults to ``2 * round_time_s``.
    duration_s:
        Simulated time horizon.
    """
    if round_time_s <= 0 or batch_capacity < 1 or clients < 1:
        raise ConfigurationError("invalid closed-loop parameters")
    timeout = round_timeout_s if round_timeout_s is not None \
        else 2 * round_time_s
    rng = seeded_rng(seed)

    def draw_think() -> float:
        if think_time_s <= 0:
            return 0.0
        if exponential_think:
            return rng.expovariate(1.0 / think_time_s)
        return think_time_s

    # Event queue: (time, order, kind, payload).  Kinds: "arrive" a client
    # request arrives; "round_done" the in-flight batch completes.
    events: list[tuple[float, int, str, float]] = []
    order = 0
    for _ in range(clients):
        heapq.heappush(events, (0.0, order, "arrive", 0.0))
        order += 1

    # Simulated-clock metrics: latencies are *simulated* seconds, so the
    # histogram carries a clock=sim label to keep it distinguishable from
    # wall-clock series of the same shape.
    lat_hist = OBS.registry.histogram(
        "closedloop.latency.seconds", clock="sim") if OBS.enabled else None

    pending: list[float] = []  # arrival times of queued requests
    oldest_pending: float | None = None
    busy_until: float | None = None
    in_flight: list[float] = []
    recorder = LatencyRecorder()
    rounds = 0
    timeout_dispatches = 0
    served = 0
    now = 0.0

    def try_dispatch(current: float) -> None:
        nonlocal busy_until, in_flight, pending, rounds, timeout_dispatches
        nonlocal oldest_pending, order
        if busy_until is not None or not pending:
            return
        timed_out = (oldest_pending is not None
                     and current - oldest_pending >= timeout)
        if len(pending) < batch_capacity and not timed_out:
            return
        take = min(batch_capacity, len(pending))
        in_flight = pending[:take]
        pending = pending[take:]
        oldest_pending = pending[0] if pending else None
        busy_until = current + round_time_s
        rounds += 1
        if timed_out and take < batch_capacity:
            timeout_dispatches += 1
        heapq.heappush(events, (busy_until, order, "round_done", 0.0))
        order += 1

    while events:
        now, _, kind, _ = heapq.heappop(events)
        if now > duration_s:
            break
        if kind == "arrive":
            pending.append(now)
            if oldest_pending is None or now < oldest_pending:
                oldest_pending = pending[0]
            try_dispatch(now)
            # A timeout check must fire even with no further arrivals.
            if busy_until is None and pending:
                deadline = pending[0] + timeout
                heapq.heappush(events, (deadline, order, "timeout", 0.0))
                order += 1
        elif kind == "timeout":
            try_dispatch(now)
        else:  # round_done
            for arrival in in_flight:
                recorder.record(now - arrival)
                if lat_hist is not None:
                    lat_hist.observe(now - arrival)
                served += 1
                next_arrival = now + draw_think()
                heapq.heappush(events, (next_arrival, order, "arrive", 0.0))
                order += 1
            in_flight = []
            busy_until = None
            try_dispatch(now)

    duration = min(now, duration_s)
    if OBS.enabled:
        reg = OBS.registry
        reg.counter("closedloop.rounds.total", clock="sim").inc(rounds)
        reg.counter("closedloop.requests.total", clock="sim").inc(served)
        reg.counter("closedloop.timeout_dispatches.total",
                    clock="sim").inc(timeout_dispatches)
        OBS.event("closedloop.done", clients=clients, rounds=rounds,
                  served=served, duration_s=duration)
    return ClosedLoopResult(
        requests=served,
        rounds=rounds,
        duration_s=duration,
        throughput_ops=served / duration if duration > 0 else 0.0,
        latency=recorder.summary(),
        timeout_dispatches=timeout_dispatches,
    )
