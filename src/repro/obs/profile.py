"""Span-tree profiler: flamegraph-style decomposition of a traced run.

:mod:`repro.obs.trace` records every span with a ``span_id`` and the
``parent`` open on the same thread when it completed; this module folds
those records back into an aggregate tree — spans with the same name at
the same tree position merge, accumulating count and inclusive seconds —
and renders it as an indented, bar-annotated report::

    round                          10x   0.0089s  100.0%  |##########|
      phase.server_io              20x   0.0024s   26.7%  |###       |
      phase.plan                   10x   0.0022s   25.1%  |###       |
      (untracked)                          0.0002s    2.7%  |          |

``(untracked)`` rows are a node's inclusive time minus its children's —
the time no child span covers.

The report's second half derives per-phase p50/p99 latency from the
``<phase>.seconds`` histograms, so ``repro.cli obs --profile`` shows
where each round's time goes, per phase.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["ProfileNode", "build_profile", "profile_snapshot",
           "render_profile"]


class ProfileNode:
    """One aggregate position in the span tree."""

    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children: dict[str, ProfileNode] = {}

    @property
    def child_total(self) -> float:
        return sum(child.total for child in self.children.values())

    def to_dict(self) -> dict:
        """JSON-able form (the ``--profile-out`` artifact shape)."""
        out: dict = {"count": self.count, "seconds": self.total}
        if self.children:
            out["children"] = {name: child.to_dict()
                               for name, child in sorted(self.children.items())}
        return out


def build_profile(records: Iterable[dict]) -> ProfileNode:
    """Fold trace records into an aggregate span tree.

    Returns a virtual root whose children are the top-level spans
    (``round`` in an instrumented proxy run).  Spans whose parent id is
    missing from the record set (dropped by the ring buffer, or emitted
    outside any open span) are treated as roots rather than lost.
    """
    spans = [r for r in records if r.get("kind") == "span"]
    known = {r.get("span_id") for r in spans if r.get("span_id") is not None}
    by_parent: dict = {}
    for record in spans:
        parent = record.get("parent")
        if parent not in known:
            parent = None
        by_parent.setdefault(parent, []).append(record)

    root = ProfileNode("(root)")
    root.count = 1

    def _fold(node: ProfileNode, children: list) -> None:
        for record in children:
            child = node.children.get(record["name"])
            if child is None:
                child = node.children[record["name"]] = ProfileNode(
                    record["name"])
            child.count += 1
            child.total += record.get("dur", 0.0)
            span_id = record.get("span_id")
            if span_id in by_parent:
                _fold(child, by_parent[span_id])

    _fold(root, by_parent.get(None, []))
    root.total = root.child_total
    return root


def _render_tree(node: ProfileNode, scale: float, depth: int,
                 lines: list, width: int = 34, bar_width: int = 10) -> None:
    for name in sorted(node.children,
                       key=lambda n: -node.children[n].total):
        child = node.children[name]
        share = child.total / scale if scale else 0.0
        bar = "#" * max(1 if child.total else 0,
                        round(share * bar_width))
        label = ("  " * depth + name).ljust(width)
        lines.append(f"{label} {child.count:>6}x {child.total:>9.4f}s "
                     f"{share:>6.1%}  |{bar:<{bar_width}}|")
        _render_tree(child, scale, depth + 1, lines, width, bar_width)
        untracked = child.total - child.child_total
        if child.children and untracked > 0.0005 * scale:
            label = ("  " * (depth + 1) + "(untracked)").ljust(width)
            lines.append(f"{label} {'':>7} {untracked:>9.4f}s "
                         f"{untracked / scale if scale else 0.0:>6.1%}  |"
                         f"{'':<{bar_width}}|")


def _phase_rows(registry: MetricsRegistry) -> list[list[str]]:
    rows = []
    for name, labels, metric in registry:
        if metric.kind != "histogram":
            continue
        if not (name.startswith("phase.") or name == "round.seconds"):
            continue
        assert isinstance(metric, Histogram)
        label_map = dict(labels)
        label_map.pop("system", None)
        suffix = ",".join(f"{k}={v}" for k, v in sorted(label_map.items()))
        rows.append([
            name.removesuffix(".seconds") + (f"[{suffix}]" if suffix else ""),
            str(metric.count),
            f"{metric.mean * 1e3:.3f}ms",
            f"{metric.percentile(0.50) * 1e3:.3f}ms",
            f"{metric.percentile(0.99) * 1e3:.3f}ms",
        ])
    return rows


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Left-aligned first column, right-aligned rest (the dashboard's too)."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
    return lines


def render_profile(registry: MetricsRegistry,
                   records: Iterable[dict]) -> str:
    """Render the full profile report (span tree + per-phase table)."""
    title = "span-tree profile"
    lines = [title, "=" * len(title), ""]
    root = build_profile(records)
    if root.children:
        lines.append("inclusive wall time by span-tree position")
        lines.append("")
        _render_tree(root, root.total, 0, lines)
        lines.append("")
    else:
        lines.append("(no span records — is observability enabled?)")
        lines.append("")

    phase_rows = _phase_rows(registry)
    if phase_rows:
        lines += ["per-phase latency (from the .seconds histograms)", ""]
        lines += _table(["phase", "count", "mean", "p50", "p99"], phase_rows)
        lines.append("")
    return "\n".join(lines)


def profile_snapshot(registry: MetricsRegistry,
                     records: Iterable[dict]) -> dict:
    """JSON-able profile (the CI artifact behind ``--profile-out``)."""
    root = build_profile(records)
    phases = {}
    for name, labels, metric in registry:
        if metric.kind != "histogram":
            continue
        if not (name.startswith("phase.") or name == "round.seconds"):
            continue
        key = name.removesuffix(".seconds")
        label_map = dict(labels)
        if "dir" in label_map:
            key += "." + label_map["dir"]
        phases[key] = metric.snapshot()
    return {
        "schema": "repro.profile/2",
        "tree": {name: node.to_dict()
                 for name, node in sorted(root.children.items())},
        "phases": phases,
    }
