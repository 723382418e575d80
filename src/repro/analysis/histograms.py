"""α-value histograms and their comparison (Figures 4 and 5).

The paper's obliviousness argument is empirical-distributional: run the
same configuration under two extreme input distributions and compare the
histograms of adversary-observable α values.  If they are (nearly)
indistinguishable, an adversary watching the server learns (nearly)
nothing about the input distribution.  Figure 4 compares skewed vs
uniform inputs; Figure 5 compares correlated vs independent queries.
The histograms are :attr:`repro.analysis.Adversary.alpha_histogram`.

Metrics reported, matching the paper's phrasing:

* ``mean_bucket_difference`` — "the average difference across different
  frequency buckets" (mean over buckets of |count₁ − count₂|);
* ``differing_fraction`` — "x% of the requests differ in their αs"
  (total variation: Σ|count₁ − count₂| / 2 / total requests).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["HistogramComparison", "histogram_difference", "render_histogram"]


@dataclass(frozen=True, slots=True)
class HistogramComparison:
    """Similarity metrics between two α histograms."""

    mean_bucket_difference: float
    total_difference: int
    differing_fraction: float
    buckets: int


def histogram_difference(first: Counter, second: Counter) -> HistogramComparison:
    """Compare two α histograms the way §8.3 does."""
    buckets = sorted(set(first) | set(second))
    if not buckets:
        return HistogramComparison(0.0, 0, 0.0, 0)
    diffs = [abs(first.get(b, 0) - second.get(b, 0)) for b in buckets]
    total_diff = sum(diffs)
    total_mass = sum(first.values()) + sum(second.values())
    differing = (total_diff / 2) / (total_mass / 2) if total_mass else 0.0
    return HistogramComparison(
        mean_bucket_difference=total_diff / len(buckets),
        total_difference=total_diff,
        differing_fraction=differing,
        buckets=len(buckets),
    )


def render_histogram(hist: Counter, width: int = 60, max_rows: int = 20) -> str:
    """ASCII rendering used by the examples (α value → bar of requests)."""
    if not hist:
        return "(empty histogram)"
    top = hist.most_common(max_rows)
    top.sort()
    peak = max(count for _, count in top)
    lines = []
    for alpha, count in top:
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  alpha={alpha:>6d} | {bar} {count}")
    if len(hist) > max_rows:
        lines.append(f"  ... ({len(hist) - max_rows} more buckets)")
    return "\n".join(lines)
