"""Benchmark harness: experiment drivers for every table and figure.

* :mod:`repro.bench.harness` — runs each system's real protocol over a
  workload trace and converts its operation counts into simulated-time
  throughput/latency via the cost model;
* :mod:`repro.bench.experiments` — :data:`EXPERIMENTS`, the one table of
  experiments (run / paper claim / render / check per row, in DESIGN.md
  §3's order), with :mod:`repro.bench.ablations` for the rows beyond the
  paper's figures;
* :mod:`repro.bench.reporting` — paper-style table/series rendering.
"""

from repro.bench.experiments import EXPERIMENTS, Experiment
from repro.bench.harness import (
    Measurement,
    run_insecure,
    run_pancake,
    run_taostore,
    run_waffle,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Measurement",
    "run_insecure",
    "run_pancake",
    "run_taostore",
    "run_waffle",
]
