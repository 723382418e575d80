"""Small statistics toolkit for the tests: percentiles and KS goodness of fit.

* :func:`percentile` — linear-interpolation percentile (the numpy
  default), dependency-free so the helpers work on plain lists;
* :func:`ks_statistic` / :func:`ks_exponential` — the Kolmogorov–
  Smirnov distance against an arbitrary CDF, specialised for the
  exponential inter-arrival check on :class:`PoissonArrivals`.

The known-answer fixtures in ``tests/test_analysis_stats.py`` pin exact
outputs.  Only tests use these, so they live here rather than in
``repro.analysis``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "ks_exponential",
    "ks_statistic",
    "percentile",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Matches ``numpy.percentile``'s default ("linear") method so numbers
    are comparable with any externally produced report.
    """
    if not samples:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def ks_statistic(samples: Sequence[float],
                 cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov–Smirnov distance ``sup |F_n(x) - F(x)|``.

    The supremum over a step empirical CDF is attained at a sample
    point, approaching from below or above, so both one-sided gaps are
    evaluated at every order statistic.
    """
    if not samples:
        raise ConfigurationError("KS statistic of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    distance = 0.0
    for i, x in enumerate(ordered):
        theoretical = cdf(x)
        distance = max(distance,
                       abs((i + 1) / n - theoretical),
                       abs(theoretical - i / n))
    return distance


def ks_exponential(samples: Sequence[float],
                   rate: float) -> tuple[float, float]:
    """KS distance of ``samples`` against Exponential(``rate``).

    Returns ``(statistic, critical_value)`` where the critical value is
    the large-sample 5% threshold ``1.358 / sqrt(n)`` — the Poisson
    inter-arrival test asserts ``statistic < critical_value``.
    """
    if rate <= 0:
        raise ConfigurationError("exponential rate must be positive")
    statistic = ks_statistic(
        samples, lambda x: 1.0 - math.exp(-rate * x) if x > 0 else 0.0)
    return statistic, 1.358 / math.sqrt(len(samples))
