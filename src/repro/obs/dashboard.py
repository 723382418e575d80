"""Terminal dashboard: one table for throughput, latency and security.

:func:`render_dashboard` turns a metrics registry (plus, optionally, a
live :class:`~repro.analysis.adversary.Adversary`) into the operator
view §8.4 presupposes: per-system throughput and latency percentiles,
Waffle's batch composition (real / fake-real / fake-dummy), cache hit
rate, and the α-budget status — all from the shared metric names, so
Waffle and the baselines line up row by row.  Where a round's time goes
phase by phase is the span profile's table (:mod:`repro.obs.profile`).

The adversary argument is duck-typed (``alpha_budget``, ``windows``,
``unread_ids``, ``breaches``) to keep this module free of dependencies
on the analysis package.
"""

from __future__ import annotations

from typing import Any

from repro.obs.profile import _table
from repro.obs.registry import MetricsRegistry

__all__ = ["render_dashboard"]


def _by_system(registry: MetricsRegistry, metric_name: str) -> dict:
    """``system label value -> metric`` for one shared metric name."""
    out = {}
    for name, labels, metric in registry:
        if name != metric_name:
            continue
        system = dict(labels).get("system", "-")
        out[system] = metric
    return out


def _fmt(value: float, unit: str = "") -> str:
    if value >= 1000:
        return f"{value:,.0f}{unit}"
    if value >= 1:
        return f"{value:.2f}{unit}"
    return f"{value:.4f}{unit}"


def render_dashboard(registry: MetricsRegistry, adversary: Any = None) -> str:
    """Render the live dashboard as plain text."""
    title = "repro observability"
    lines = [title, "=" * len(title), ""]

    # ---- per-system throughput and latency --------------------------
    rounds = _by_system(registry, "round.seconds")
    requests = _by_system(registry, "requests.total")
    hits = _by_system(registry, "cache.hits.total")
    if rounds:
        rows = []
        for system in sorted(rounds):
            hist = rounds[system]
            wall = hist.total or float("nan")
            reqs = requests[system].value if system in requests else 0
            hit_rate = (hits[system].value / reqs
                        if system in hits and reqs else None)
            rows.append([
                system,
                str(hist.count),
                str(reqs),
                _fmt(hist.count / wall) if wall else "-",
                _fmt(reqs / wall) if wall else "-",
                _fmt(hist.percentile(0.50) * 1e3) + "ms",
                _fmt(hist.percentile(0.95) * 1e3) + "ms",
                _fmt(hist.percentile(0.99) * 1e3) + "ms",
                f"{hit_rate:.1%}" if hit_rate is not None else "-",
            ])
        lines += ["throughput / latency (wall clock)", ""]
        lines += _table(
            ["system", "rounds", "reqs", "rounds/s", "reqs/s",
             "p50", "p95", "p99", "cache-hit"], rows)
        lines.append("")

    # ---- batch composition ------------------------------------------
    real = _by_system(registry, "batch.real.total")
    fake_real = _by_system(registry, "batch.fake_real.total")
    fake_dummy = _by_system(registry, "batch.fake_dummy.total")
    systems = sorted(set(real) | set(fake_real) | set(fake_dummy))
    if systems:
        rows = []
        for system in systems:
            r = real[system].value if system in real else 0
            fr = fake_real[system].value if system in fake_real else 0
            fd = fake_dummy[system].value if system in fake_dummy else 0
            total = (r + fr + fd) or 1
            rows.append([
                system, str(r), str(fr), str(fd),
                f"{r / total:.1%}", f"{(fr + fd) / total:.1%}",
            ])
        lines += ["batch composition (server reads)", ""]
        lines += _table(
            ["system", "real", "fake-real", "fake-dummy",
             "real%", "fake%"], rows)
        lines.append("")

    # ---- alpha budget ------------------------------------------------
    if adversary is not None:
        windows = adversary.windows
        max_alpha = max((w.max_alpha for w in windows
                         if w.max_alpha is not None), default=None)
        status = "BREACHED" if adversary.breaches else "OK"
        lines += [
            "alpha-budget status (live adversary, §8.4)",
            "",
            f"  budget              : {adversary.alpha_budget}",
            f"  windows closed      : {len(windows)}",
            f"  max observed alpha  : "
            f"{max_alpha if max_alpha is not None else '-'}",
            f"  outstanding ids     : {adversary.unread_ids}",
            f"  budget breaches     : {adversary.breaches}",
            f"  status              : {status}",
            "",
        ]

    if len(lines) == 3:
        lines.append("(no metrics recorded — is observability enabled?)")
    return "\n".join(lines)
