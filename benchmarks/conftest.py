"""Shared helpers for the benchmark suite.

``bench_figures.py`` regenerates every experiment row (DESIGN.md §3)
through :func:`publish` — text only, so it writes nothing that is not
tracked under ``benchmarks/results/``; ``bench_serving.py`` (wall-clock)
uses :func:`emit_result` for its text + JSON pair.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a rendered experiment and save it to benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_result(name: str, text: str, data=None) -> None:
    """Publish one benchmark result in both human and machine form.

    The rendered ``text`` goes through :func:`publish` (stdout +
    ``results/<name>.txt``); ``data`` — plus a metrics snapshot when the
    observability layer is live — lands in ``results/<name>.json``.
    """
    publish(name, text)
    from repro.obs import OBS

    payload = {
        "name": name,
        "data": data,
        "metrics": OBS.registry.snapshot() if OBS.enabled else None,
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n")
