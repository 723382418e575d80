"""Simulated-time substrate.

The paper measures wall-clock throughput of a C++ proxy against Redis over
10 Gbps Ethernet.  A pure-Python re-run of that measurement would say more
about CPython than about Waffle, so all performance numbers in this
reproduction come from a simulated clock: the systems execute their real
protocol logic and charge calibrated costs (round trips, bytes, server
ops, crypto, proxy bookkeeping) to a :class:`SimClock`.  DESIGN.md §1 and
§5 document the substitution and the calibration.

Nothing in this package reads a real clock; wall-clock measurement lives
in ``benchmarks/e2e`` (BENCHMARK.json).
"""

from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.metrics import LatencyRecorder, LatencySummary, ThroughputMeter

__all__ = ["CostModel", "LatencyRecorder", "LatencySummary", "SimClock",
           "ThroughputMeter"]
