"""Timing-leakage observatory: what the *schedule* of rounds reveals.

Waffle's access-pattern guarantees (Theorems 7.1/7.2) cover *which*
storage ids the server sees — every round is B reads, B+D deletes and B
writes over α,β-uniform ids regardless of the workload.  They say
nothing about *when* rounds happen.  A proxy that fires a round the
moment B real requests have accumulated ("on-fill" scheduling) turns the
inter-round gap into a side channel: gaps shrink as offered load rises,
and a flash crowd on a hot key shows up as a sharp change-point in the
gap series — all without the adversary reading a single id.

This module measures that channel:

* :func:`load_inference_attack` and :func:`detect_onset` are the
  attacks.  They read the release instant of each round (a simulated
  schedule, or :attr:`repro.analysis.Adversary.release_times` taken
  live from the tracer's ``storage.access`` stream), recover the
  offered-load curve from gap widths, and locate a hot-key onset as the
  strongest mean-shift in the gap series;
* :func:`replay_schedule` drives a served release policy
  (:mod:`repro.serve.policy`) on simulated time with the frontend's own
  dispatch rule, so the observatory scores the objects the server runs;
* :func:`timing_attack_benchmark` runs both attacks against the
  on-fill and the fixed-interval (shaped) policy replayed over the
  *same* arrivals, scoring each as a leakage number in ``[0, 1]``.
  Fixed-interval release decouples the schedule from the workload, so
  its score must drop — the property
  :func:`repro.testing.oracle.check_timing_channel` pins and the chaos
  suite sweeps over seeds.

Threat-model caveat (DESIGN.md §12): the attacks read *nothing* the
server cannot see.  Live instants come from :func:`repro.obs.clock`
(the sanctioned monotonic source — oblint OBL201 keeps raw
``time.monotonic`` out of protocol code), and only the first access of
each round counts; per-phase proxy-internal timings never reach this
module.
"""

from __future__ import annotations

import math
import random
from collections import deque

from repro.serve.policy import (
    FixedIntervalPolicy,
    OnFillPolicy,
    ReleasePolicy,
)

__all__ = [
    "detect_onset",
    "estimate_rates",
    "load_inference_attack",
    "replay_schedule",
    "timing_attack_benchmark",
]


# ----------------------------------------------------------------------
# the adversary
# ----------------------------------------------------------------------
def _pearson(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation; 0.0 when either series is degenerate.

    "Degenerate" includes *numerically* constant series: a shaped
    schedule produces gaps identical up to float accumulation error, and
    correlating that rounding noise against anything yields an arbitrary
    value in [-1, 1].  A relative-variance floor (coefficient of
    variation below 1e-9) treats such series as carrying no signal.
    """
    n = len(xs)
    if n < 2 or n != len(ys):
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if (sxx <= (1e-9 * abs(mx)) ** 2 * n
            or syy <= (1e-9 * abs(my)) ** 2 * n):
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def estimate_rates(timestamps: list[float], r: int) -> list[float]:
    """The attacker's load estimate: ``r`` real requests per gap.

    Under on-fill scheduling a round releases once ``r`` real requests
    have arrived, so the offered rate across gap ``i`` is roughly
    ``r / gap_i``.  Zero-width gaps (possible on a coarse clock) map to
    0.0 rather than infinity — the correlation step cannot use an
    infinite sample anyway.
    """
    rates = []
    for a, b in zip(timestamps, timestamps[1:]):
        gap = b - a
        rates.append(r / gap if gap > 0 else 0.0)
    return rates


def load_inference_attack(timestamps: list[float],
                          true_rates: list[float], r: int) -> dict:
    """Score how well gap widths recover the offered-load curve.

    ``true_rates[i]`` is the ground-truth arrival rate in force across
    gap ``i`` (what the adversary is trying to learn).  The score is the
    absolute Pearson correlation between the gap-derived estimates and
    the truth: 1.0 means the schedule hands the load curve straight to
    the adversary, 0.0 means the gaps carry no linear information.
    """
    estimates = estimate_rates(timestamps, r)
    k = min(len(estimates), len(true_rates))
    correlation = _pearson(estimates[:k], true_rates[:k])
    return {
        "samples": k,
        "correlation": correlation,
        "leakage_score": abs(correlation),
    }


def detect_onset(timestamps: list[float]) -> int | None:
    """Locate the strongest mean shift in the gap series, if any.

    Scans every split point of the gap series and scores the mean
    difference weighted by ``sqrt(i * (n - i) / n)`` (the two-sample
    z-statistic's scaling), returning the gap index with the highest
    score — the adversary's estimate of when a flash crowd began.
    Returns ``None`` when the series is too short or carries no shift
    (all gaps equal, as under fixed-interval shaping).
    """
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    n = len(gaps)
    if n < 4:
        return None
    total = sum(gaps)
    best_idx = None
    best_stat = 0.0
    left = 0.0
    for i in range(1, n):
        left += gaps[i - 1]
        mean_left = left / i
        mean_right = (total - left) / (n - i)
        stat = abs(mean_left - mean_right) * math.sqrt(i * (n - i) / n)
        if stat > best_stat:
            best_stat = stat
            best_idx = i
    mean_gap = total / n
    if best_idx is None or best_stat <= 1e-9 * max(mean_gap, 1e-12):
        return None
    return best_idx


# ----------------------------------------------------------------------
# schedule replay
# ----------------------------------------------------------------------
def replay_schedule(policy: ReleasePolicy, arrivals: list[float], r: int,
                    rounds: int) -> list[float]:
    """The serving frontend's dispatch rule, on simulated time.

    ``arrivals`` are request arrival instants in ascending order.  Each
    step admits every arrival at or before ``now``, then asks the policy
    once: a release at or before ``now`` takes up to ``r`` requests and
    records the instant :meth:`~repro.serve.policy.ReleasePolicy.release`
    commits to; otherwise ``now`` advances to the earlier of that
    release and the next arrival.  Rounds take no time (DESIGN.md §12's
    no-service-time caveat).  Returns the first ``rounds`` committed
    instants, and raises ``ValueError`` when the arrivals run out first.
    """
    upcoming = iter(arrivals)
    next_arrival = next(upcoming, None)
    queue: deque[float] = deque()
    times: list[float] = []
    now = 0.0
    while len(times) < rounds:
        while next_arrival is not None and next_arrival <= now:
            queue.append(next_arrival)
            next_arrival = next(upcoming, None)
        at = policy.next_release(len(queue), queue[0] if queue else None,
                                 now)
        if at is not None and at <= now:
            for _ in range(min(r, len(queue))):
                queue.popleft()
            times.append(policy.release(now))
        elif next_arrival is not None and (at is None or next_arrival < at):
            now = next_arrival
        elif at is not None:
            now = at
        else:
            raise ValueError(f"arrivals release {len(times)} of {rounds} "
                             "rounds")
    return times


def timing_attack_benchmark(rounds: int = 64, r: int = 20, seed: int = 7,
                            base_rate: float = 200.0,
                            hot_factor: float = 4.0) -> dict:
    """Run both attacks against on-fill vs fixed-interval scheduling.

    The workload is a flash crowd: offered load runs at ``base_rate``
    (with multiplicative noise) for the first half of the run, then
    jumps by ``hot_factor`` at ``onset = rounds // 2`` — the signature a
    hot key's arrival leaves on an on-fill schedule.  Each schedule's
    leakage score combines the two attacks equally::

        score = 0.5 * |load correlation| + 0.5 * onset_score

    where ``onset_score`` is 1 at an exact change-point recovery,
    decaying linearly to 0 at half-a-run's error (and 0 when no onset is
    detected at all).  ``shaped_leaks_less`` is the headline bit the
    oracle asserts.
    """
    rng = random.Random(seed)
    onset = rounds // 2
    rates = [
        (base_rate * hot_factor if i >= onset else base_rate)
        * (0.8 + 0.4 * rng.random())
        for i in range(rounds)
    ]
    # r exponential inter-arrival gaps per round at that round's rate.
    gaps = random.Random(seed + 1)
    arrivals: list[float] = []
    now = 0.0
    for rate in rates:
        for _ in range(r):
            now += gaps.expovariate(rate)
            arrivals.append(now)

    def _evaluate(schedule: str, policy: ReleasePolicy) -> dict:
        times = replay_schedule(policy, arrivals, r, rounds)
        attack = load_inference_attack(times, rates, r)
        detected = detect_onset(times)
        if detected is None:
            onset_score = 0.0
        else:
            err = abs(detected - onset) / max(1, rounds // 2)
            onset_score = max(0.0, 1.0 - 2.0 * err)
        return {
            "schedule": schedule,
            "load_attack": attack,
            "onset_true": onset,
            "onset_detected": detected,
            "onset_score": onset_score,
            "leakage_score": 0.5 * attack["leakage_score"]
            + 0.5 * onset_score,
        }

    on_fill = _evaluate("on_fill", OnFillPolicy(r))
    fixed = _evaluate("fixed", FixedIntervalPolicy(
        r / (sum(rates) / len(rates))))
    return {
        "schema": "repro.timing/1",
        "rounds": rounds,
        "r": r,
        "seed": seed,
        "base_rate": base_rate,
        "hot_factor": hot_factor,
        "on_fill": on_fill,
        "fixed": fixed,
        "leakage_drop": on_fill["leakage_score"] - fixed["leakage_score"],
        "shaped_leaks_less": (fixed["leakage_score"]
                              < on_fill["leakage_score"]),
    }
