"""Exporter: Prometheus-style text snapshots of the metrics registry.

The text format follows the Prometheus exposition conventions closely
enough for any Prometheus-ecosystem tool to scrape a file written by
:func:`render_prometheus`: ``# TYPE`` headers, ``_total`` counter
suffixes and ``{quantile="..."}`` summary lines for histograms.
Metric names are sanitized (dots become underscores) on the way out;
the registry keeps the dotted internal names.  Traces need no exporter:
``Tracer(path=...)`` streams them as JSON lines.
"""

from __future__ import annotations

import math
import os

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["render_prometheus", "write_prometheus"]


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _labels_text(labels: tuple, extra: str = "") -> str:
    parts = [f'{_sanitize(k)}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _render_summary(base: str, labels: tuple, hist: Histogram) -> list[str]:
    lines = []
    for q in (0.5, 0.95, 0.99):
        extra = 'quantile="%s"' % q
        lines.append(
            f"{base}{_labels_text(labels, extra)} "
            f"{_format_value(hist.percentile(q))}")
    lines.append(f"{base}_sum{_labels_text(labels)} {_format_value(hist.total)}")
    lines.append(f"{base}_count{_labels_text(labels)} {hist.count}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the whole registry as Prometheus exposition text."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for name, labels, metric in registry:
        base = _sanitize(name)
        if metric.kind == "counter":
            base = base if base.endswith("_total") else base + "_total"
        kind = "summary" if metric.kind == "histogram" else metric.kind
        if base not in seen_types:
            lines.append(f"# TYPE {base} {kind}")
            seen_types.add(base)
        if kind == "summary":
            lines.extend(_render_summary(base, labels, metric))
        else:
            lines.append(f"{base}{_labels_text(labels)} "
                         f"{_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry,
                     path: str | os.PathLike[str]) -> None:
    """Write :func:`render_prometheus` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry))
