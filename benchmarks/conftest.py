"""Shared helpers for the benchmark suite.

``bench_figures.py`` regenerates every experiment row (DESIGN.md §3)
through :func:`publish` — text only, so it writes nothing that is not
tracked under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a rendered experiment and save it to benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

