"""Calibrated cost model: charges simulated time for protocol primitives.

Why a cost model
----------------
The paper's performance numbers (Figures 2-3, Table 2 throughput) come from
a C++ proxy and Redis on dedicated machines with 10 Gbps Ethernet.  The
protocol *behaviour* — what is read, written, cached, faked — is fully
reproduced by this library; the *clock* is modelled.  Every system driver
runs its real protocol and charges the primitives below to a
:class:`~repro.sim.clock.SimClock`.  Ratios between systems then follow
from genuine operation counts (round trips saved by batching, bytes moved
per request, per-item proxy work), which is what the paper's comparisons
measure.

Calibration
-----------
Constants were fixed once, by hand, so that the paper's default
configuration (N=10^6-scaled, B=2500-scaled, R=40%, f_D=20%, 4 cores)
lands near the reported numbers, and never tuned per experiment:

* ``rtt_s`` / ``transfer_per_kib_s``: a same-rack 10 Gbps network
  (1 KiB = 0.82 us at line rate).
* ``server_op_pipelined_s`` vs ``server_op_unbatched_s``: Redis executes
  ~1 M pipelined ops/s but an individual request pays syscall + scheduling;
  the gap between the two constants is what batching buys and is the main
  source of Waffle's advantage over per-request systems (TaoStore).
* ``proxy_item_s``: per-object bookkeeping in the proxy (batch assembly,
  hash-map updates, response routing).  Dominates Waffle's round time, as
  the paper's core-count experiment (Fig 2c) implies.
* ``lru_*``: Figure 2d shows Waffle slowing down as the cache grows; the
  paper attributes this to LRU recency tracking.  We model a cache
  operation as ``lru_base_s + lru_log_s * log2(C+1)``.
* ``core_efficiency``: Figure 2c's shape — +58.9% throughput from 1 to 4
  cores, then a ~40% decline from contention — is a property of their
  proxy's synchronization.  We reproduce it with an Amdahl-style curve
  (sigma = 0.40, so the CPU-bound work runs 1.82x faster on 4 cores;
  end-to-end throughput then gains ~64% from 1 to 4 cores once the fixed
  network share is included, against the paper's 58.9%) plus a linear
  contention penalty beyond 4 cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CostModel"]


@dataclass
class CostModel:
    """Cost constants (seconds) and derived helpers."""

    #: Proxy <-> server network round-trip time.
    rtt_s: float = 150e-6
    #: Wire time per KiB (10 Gbps line rate).
    transfer_per_kib_s: float = 0.82e-6
    #: Server-side cost per command inside a pipeline.
    server_op_pipelined_s: float = 0.2e-6
    #: Server-side cost per stand-alone command (syscall + scheduling).
    server_op_unbatched_s: float = 60e-6
    #: One PRF evaluation at the proxy.
    prf_s: float = 1e-6
    #: Authenticated encryption or decryption, per KiB.
    aead_per_kib_s: float = 3e-6
    #: Per-object proxy bookkeeping (batch assembly, routing, maps).
    proxy_item_s: float = 20e-6
    #: LRU bookkeeping: base + log-factor (see module docstring).
    lru_base_s: float = 0.5e-6
    lru_log_s: float = 0.3e-6
    #: Ordered-index operation, charged per log2(n) factor: this models the
    #: *paper's* balanced BST, not this repo's O(1) buckets-and-heap index
    #: (``core/timestamp_index.py``).
    index_log_s: float = 0.1e-6
    #: Client-side per-request overhead for unproxied (insecure) access.
    client_overhead_s: float = 295e-6
    #: Closed-loop client threads driving the system (paper: multi-threaded
    #: client machine).  Used to convert service time into throughput for
    #: per-request systems and into queueing latency for TaoStore.
    client_threads: int = 20
    #: Proxy cores (Figure 2c sweeps this; 4 is the paper's default).
    cores: int = 4
    #: Pancake-specific: one updateCache maintenance step.
    pancake_update_cache_s: float = 2e-6
    #: Pancake-specific: sampling the fake-query distribution (alias table).
    pancake_sample_s: float = 1.5e-6
    #: Pancake-specific: residual per-slot proxy overhead (coin flip,
    #: per-request response routing and locking).  The paper measures
    #: Waffle 45-57% faster than Pancake at equal batch shapes but does
    #: not itemize the cause; this constant encodes that measured
    #: implementation gap (see DESIGN.md §5).
    pancake_slot_s: float = 55e-6
    #: TaoStore-specific: per-bucket sequencer/flush serialization
    #: overhead — the serialized write-back that caps TaoStore's
    #: throughput (~300 ms request latency in the paper's Figure 2b).
    taostore_bucket_s: float = 640e-6

    #: Amdahl sigma for the core-efficiency curve (eff(4) = 4 / 2.2 = 1.82).
    core_sigma: float = 0.40
    #: Contention decline per core beyond 4 (Figure 2c's drop-off).
    core_contention: float = 0.12
    #: Floor on the post-peak efficiency factor.
    core_floor: float = 0.50

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def core_efficiency(self, cores: int | None = None) -> float:
        """Effective parallel speedup of the proxy's CPU-bound work."""
        c = self.cores if cores is None else cores
        if c < 1:
            raise ValueError("core count must be positive")
        base = c / (1.0 + self.core_sigma * (c - 1))
        peak = 4 / (1.0 + self.core_sigma * 3)
        if c <= 4:
            return base
        penalty = max(self.core_floor, 1.0 - self.core_contention * (c - 4))
        return peak * penalty

    def transfer_s(self, n_items: int, value_kib: float) -> float:
        """Wire time for ``n_items`` values of ``value_kib`` KiB each."""
        return n_items * value_kib * self.transfer_per_kib_s

    def aead_s(self, n_items: int, value_kib: float) -> float:
        """Encrypt or decrypt ``n_items`` values."""
        return n_items * max(value_kib, 0.0625) * self.aead_per_kib_s

    def lru_op_s(self, cache_size: int) -> float:
        """One cache recency/insert/evict operation on a cache of given size."""
        return self.lru_base_s + self.lru_log_s * math.log2(cache_size + 2)

    def index_op_s(self, index_size: int) -> float:
        """One operation on the paper's ordered index (a balanced BST)."""
        return self.index_log_s * math.log2(index_size + 2)

    def pipelined_round_trip_s(self, n_ops: int, value_kib: float) -> float:
        """One batched server round trip carrying ``n_ops`` operations."""
        return (
            self.rtt_s
            + n_ops * self.server_op_pipelined_s
            + self.transfer_s(n_ops, value_kib)
        )

    def unbatched_op_s(self, value_kib: float) -> float:
        """One stand-alone server operation (its own round trip)."""
        return self.rtt_s + self.server_op_unbatched_s + self.transfer_s(1, value_kib)
