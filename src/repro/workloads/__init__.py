"""Workload substrate: YCSB, Zipfian sampling, correlated clickstreams.

The paper evaluates with YCSB workloads A (50/50 read-write) and C (read
only) at Zipf 0.99 (§8), and with an IHOP-style correlated clickstream over
500 keys (§8.3.2).  This package generates all of them, plus the uniform
control distribution used by Table 2 and Figure 4.
"""

from repro.workloads.correlated import ClickstreamModel, CorrelatedWorkload
from repro.workloads.openloop import (
    Arrival,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workloads.trace import Operation, TraceRequest
from repro.workloads.ycsb import (
    LatestWorkload,
    YcsbWorkload,
    workload_a,
    workload_c,
    workload_d,
)
from repro.workloads.zipf import UniformSampler, ZipfSampler

__all__ = [
    "Arrival",
    "ClickstreamModel",
    "CorrelatedWorkload",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "LatestWorkload",
    "Operation",
    "TraceRequest",
    "UniformSampler",
    "YcsbWorkload",
    "ZipfSampler",
    "workload_a",
    "workload_c",
    "workload_d",
]
