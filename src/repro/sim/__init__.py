"""Simulated-time substrate for the paper figures.

The paper measures wall-clock throughput of a C++ proxy against Redis over
10 Gbps Ethernet.  A pure-Python re-run of that measurement would say more
about CPython than about Waffle, so the paper figures
(:data:`repro.bench.EXPERIMENTS`) come from a cost model: the systems
execute their real protocol logic and charge calibrated costs (round
trips, bytes, server ops, crypto, proxy bookkeeping) to a
:class:`SimClock`.  DESIGN.md §1 and §5 document the substitution and the
calibration.

Nothing in this package reads a real clock or feeds the metrics registry;
wall-clock measurement lives in ``benchmarks/e2e`` (BENCHMARK.json).
"""

from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel

__all__ = ["CostModel", "SimClock"]
