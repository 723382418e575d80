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
* :func:`timing_attack_benchmark` runs both attacks against an on-fill
  schedule and a fixed-interval (shaped) schedule of the *same* workload
  on a :class:`~repro.sim.clock.SimClock`, scoring each as a leakage
  number in ``[0, 1]``.  Fixed-interval release decouples the schedule
  from the workload, so its score must drop — the property
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

from repro.sim.clock import SimClock

__all__ = [
    "detect_onset",
    "estimate_rates",
    "load_inference_attack",
    "simulate_round_times",
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
# schedule simulation
# ----------------------------------------------------------------------
def simulate_round_times(rates: list[float], r: int, seed: int = 0,
                         schedule: str = "on_fill",
                         interval: float | None = None) -> list[float]:
    """Simulate round-release instants for a given offered-load curve.

    ``rates[i]`` is the Poisson arrival rate (requests/second) in force
    while the proxy accumulates round ``i``'s batch.  Two schedules:

    * ``"on_fill"`` — the round fires as soon as ``r`` real requests
      have arrived (exponential inter-arrivals drawn from
      ``random.Random(seed)``); processing takes no time.
      The gap tracks the load: this is the leaky baseline.
    * ``"fixed"`` — the round fires every ``interval`` seconds
      (default: the mean on-fill gap implied by the *average* rate),
      regardless of arrivals.  The same rng draws are consumed, so the
      two schedules differ only in release policy, not in workload.

    Runs entirely on a :class:`SimClock` — no wall-clock reads, fully
    deterministic per seed.
    """
    if schedule not in ("on_fill", "fixed"):
        raise ValueError(f"unknown schedule {schedule!r}; "
                         "choose 'on_fill' or 'fixed'")
    rng = random.Random(seed)
    clock = SimClock()
    if schedule == "fixed" and interval is None:
        mean_rate = sum(rates) / len(rates) if rates else 1.0
        interval = r / mean_rate
    times = []
    for rate in rates:
        if rate <= 0:
            raise ValueError("arrival rates must be positive")
        fill = sum(rng.expovariate(rate) for _ in range(r))
        if schedule == "on_fill":
            clock.advance(fill)
        else:
            assert interval is not None
            clock.advance(interval)
        times.append(clock.now)
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

    def _evaluate(schedule: str) -> dict:
        times = simulate_round_times(rates, r, seed=seed + 1,
                                     schedule=schedule)
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

    on_fill = _evaluate("on_fill")
    fixed = _evaluate("fixed")
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
