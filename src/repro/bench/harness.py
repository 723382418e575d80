"""System drivers: real protocol execution + simulated-time accounting.

Each ``run_*`` function executes a workload trace against the *actual*
protocol implementation (real batches, caches, PRFs, storage commands) and
charges the resulting operation counts to the cost model.  Nothing about
the access pattern is modeled — only the clock (see DESIGN.md §1).

Latency models (documented here once; EXPERIMENTS.md discusses fidelity):

* **insecure** — one stand-alone server op per request: latency is the
  per-op service time; throughput is ``client_threads / service``
  (closed loop).
* **Waffle / Pancake** — batched proxies: throughput is
  ``served_requests / Σ round_time``.  Latency is the batch round-trip
  floor (2·RTT) plus the amortized per-request share of the round,
  doubled for the batch queued ahead under saturation.
* **TaoStore** — the sequencer/write-back serializes the processor:
  throughput is ``1 / per-access service time`` regardless of client
  threads, and a closed-loop population of ``client_threads`` queues up,
  so latency is ``client_threads × service`` (this is how the paper's
  ~300 ms latency at ~100 ops/s arises).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from numpy.typing import ArrayLike

from repro.baselines.insecure import InsecureStore
from repro.baselines.pancake import PancakeProxy
from repro.baselines.taostore import TaoStore
from repro.core.batch import ClientRequest, request_from_trace
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import RoundStats
from repro.crypto.keys import KeyChain
from repro.sim.costmodel import CostModel
from repro.storage.base import StorageBackend
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation, TraceRequest

__all__ = [
    "Measurement",
    "run_insecure",
    "run_pancake",
    "run_taostore",
    "run_waffle",
    "waffle_round_time",
]


@dataclass
class Measurement:
    """One system's performance under one workload."""

    system: str
    throughput_ops: float
    latency_s: float
    requests: int
    rounds: int
    sim_seconds: float
    extra: dict = field(default_factory=dict)

    def describe(self) -> str:
        return (f"{self.system}: {self.throughput_ops:,.0f} ops/s, "
                f"{self.latency_s * 1e3:.3f} ms")


# ----------------------------------------------------------------------
# Waffle
# ----------------------------------------------------------------------
def waffle_round_time(stats: RoundStats, config: WaffleConfig,
                      cost: CostModel) -> float:
    """Simulated duration of one Waffle round from its operation counts."""
    kib = config.value_size / 1024
    read_trip = cost.pipelined_round_trip_s(stats.server_reads, kib)
    write_trip = cost.pipelined_round_trip_s(stats.server_writes, kib)
    # Deletes piggyback on the next round trip (the paper's background
    # thread): charge server work only.
    delete_work = stats.server_deletes * cost.server_op_pipelined_s
    cpu = (
        (stats.requests + stats.server_reads + stats.server_writes)
        * cost.proxy_item_s
        + stats.prf_evals * cost.prf_s
        + (stats.decryptions + stats.encryptions) * cost.aead_s(1, kib)
        + stats.cache_ops * cost.lru_op_s(config.c)
        + stats.index_ops * cost.index_op_s(config.n)
    )
    return read_trip + write_trip + delete_work + cpu / cost.core_efficiency()


def _waffle_latency(config: WaffleConfig, round_time: float,
                    served: float, cost: CostModel) -> float:
    if served <= 0:
        return 0.0
    per_request = round_time / served
    return 2 * cost.rtt_s + 2 * per_request


def run_waffle(config: WaffleConfig, items: dict[str, bytes],
               trace: list[TraceRequest], cost: CostModel,
               keychain: KeyChain | None = None, record: bool = False,
               log_ids: bool = False,
               datastore: WaffleDatastore | None = None,
               ) -> tuple[Measurement, WaffleDatastore]:
    """Run ``trace`` through Waffle in R-request batches.

    An INSERT goes through the dummy-swap mutation path (§6.2, YCSB
    workload D) and counts as served; a request on a key whose insert is
    still queued first runs empty rounds until the insert lands.  Once
    the dummy budget is spent an INSERT is dropped, and so is every later
    request on its key: none of them is served or counted.
    """
    if datastore is None:
        keychain = keychain if keychain is not None else KeyChain.from_seed(
            config.seed if config.seed is not None else 0
        )
        datastore = WaffleDatastore(config, items, record=record,
                                    keychain=keychain, log_ids=log_ids)
    sim_seconds = 0.0
    served = 0
    rounds = 0
    latency_acc = 0.0
    proxy = datastore.proxy

    def run_round(requests: list[ClientRequest]) -> None:
        nonlocal sim_seconds, served, rounds, latency_acc
        datastore.execute_batch(requests)
        round_time = waffle_round_time(proxy.last_stats, config, cost)
        sim_seconds += round_time
        served += len(requests)
        rounds += 1
        latency_acc += _waffle_latency(config, round_time, len(requests),
                                       cost)

    batch: list[ClientRequest] = []
    queued: set[str] = set()
    dropped: set[str] = set()
    for request in trace:
        if request.key in dropped:
            continue
        if request.op is Operation.INSERT:
            if proxy.dummy_count - proxy.mutations.pending_inserts <= 0:
                dropped.add(request.key)
                continue
            datastore.insert(request.key, request.value)
            queued.add(request.key)
            served += 1
            continue
        if request.key in queued:
            if batch:
                run_round(batch)
                batch = []
            while proxy.mutations.pending_inserts:
                run_round([])
            queued.clear()
        batch.append(request_from_trace(request))
        if len(batch) == config.r:
            run_round(batch)
            batch = []
    if batch:
        run_round(batch)
    throughput = served / sim_seconds if sim_seconds else 0.0
    latency = latency_acc / rounds if rounds else 0.0
    measurement = Measurement(
        system="waffle", throughput_ops=throughput, latency_s=latency,
        requests=served, rounds=rounds, sim_seconds=sim_seconds,
        extra={
            "cache_hit_rate": (proxy.totals.cache_hits
                               / max(1, proxy.totals.requests)),
            "server_size": datastore.server_size,
            "inserted": proxy.real_count - config.n,
            "dummies_left": proxy.dummy_count,
        },
    )
    return measurement, datastore


# ----------------------------------------------------------------------
# insecure baseline
# ----------------------------------------------------------------------
def run_insecure(items: dict[str, bytes], trace: list[TraceRequest],
                 cost: CostModel) -> Measurement:
    """Direct plaintext access: every request is its own server op."""
    store = InsecureStore(RedisSim(), dict(items))
    kib = (len(next(iter(items.values()))) / 1024) if items else 1.0
    for request in trace:
        store.execute(request)
    service = cost.unbatched_op_s(kib) + cost.client_overhead_s
    sim_seconds = len(trace) * service / max(1, cost.client_threads)
    return Measurement(
        system="insecure",
        throughput_ops=cost.client_threads / service,
        latency_s=service,
        requests=len(trace),
        rounds=len(trace),
        sim_seconds=sim_seconds,
    )


# ----------------------------------------------------------------------
# Pancake
# ----------------------------------------------------------------------
def pancake_batch_time(proxy: PancakeProxy, reads: int, writes: int,
                       served: int, cost: CostModel, kib: float) -> float:
    """Simulated duration of one Pancake batch."""
    read_trip = cost.pipelined_round_trip_s(reads, kib)
    write_trip = cost.pipelined_round_trip_s(writes, kib)
    slots = proxy.batch_size
    cpu = (
        slots * (2 * cost.proxy_item_s + cost.pancake_slot_s)
        + slots * cost.prf_s
        + (reads + writes) * cost.aead_s(1, kib)
        + slots * 0.5 * cost.pancake_sample_s
        + slots * cost.pancake_update_cache_s
    )
    return read_trip + write_trip + cpu / cost.core_efficiency()


def run_pancake(keys: list[str], items: dict[str, bytes],
                assumed_pi: ArrayLike,
                trace: list[TraceRequest], cost: CostModel,
                batch_size: int, delta: float = 0.5,
                seed: int | None = 0, record: bool = False,
                store: StorageBackend | None = None
                ) -> tuple[Measurement, PancakeProxy]:
    """Run ``trace`` through Pancake, draining it batch by batch."""
    if store is None:
        store = RedisSim()
    proxy = PancakeProxy(keys, dict(items), assumed_pi, store,
                         batch_size=batch_size, delta=delta,
                         keychain=KeyChain.from_seed(seed or 0), seed=seed)
    kib = (len(next(iter(items.values()))) / 1024) if items else 1.0
    sim_seconds = 0.0
    served = 0
    rounds = 0
    latency_acc = 0.0
    cursor = 0
    while cursor < len(trace) or proxy.pending():
        # Keep the queue primed so the delta coin has real requests to take.
        while cursor < len(trace) and proxy.pending() < batch_size:
            proxy.submit(trace[cursor])
            cursor += 1
        before_reads = proxy.stats.server_reads
        before_writes = proxy.stats.server_writes
        got = proxy.process_batch()
        reads = proxy.stats.server_reads - before_reads
        writes = proxy.stats.server_writes - before_writes
        batch_time = pancake_batch_time(proxy, reads, writes, got, cost, kib)
        sim_seconds += batch_time
        served += got
        rounds += 1
        if got:
            latency_acc += 2 * cost.rtt_s + 2 * batch_time / got
    throughput = served / sim_seconds if sim_seconds else 0.0
    latency = latency_acc / rounds if rounds else 0.0
    measurement = Measurement(
        system="pancake", throughput_ops=throughput, latency_s=latency,
        requests=served, rounds=rounds, sim_seconds=sim_seconds,
        extra={"max_update_cache": proxy.stats.max_update_cache},
    )
    return measurement, proxy


# ----------------------------------------------------------------------
# TaoStore
# ----------------------------------------------------------------------
def run_taostore(items: dict[str, bytes], trace: list[TraceRequest],
                 cost: CostModel, seed: int | None = 0,
                 store: StorageBackend | None = None
                 ) -> tuple[Measurement, TaoStore]:
    """Run ``trace`` through TaoStore one sequenced access at a time."""
    if store is None:
        store = RedisSim()
    tao = TaoStore(dict(items), store, seed=seed,
                   keychain=KeyChain.from_seed(seed or 0))
    kib = (len(next(iter(items.values()))) / 1024) if items else 1.0
    bucket_kib = kib * tao.z
    sim_seconds = 0.0
    for request in trace:
        before_r = tao.stats.buckets_read
        before_w = tao.stats.buckets_written
        tao.execute(request)
        buckets_read = tao.stats.buckets_read - before_r
        buckets_written = tao.stats.buckets_written - before_w
        # Path fetch: one pipelined trip of (L+1) buckets; write-back the
        # same shape when the flush fires; serialization overhead per
        # bucket moved.
        access_time = (
            cost.pipelined_round_trip_s(buckets_read, bucket_kib)
            + cost.pipelined_round_trip_s(buckets_written, bucket_kib)
            + (buckets_read + buckets_written)
            * (cost.aead_s(1, bucket_kib) + cost.taostore_bucket_s)
        )
        sim_seconds += access_time
    service = sim_seconds / max(1, len(trace))
    return Measurement(
        system="taostore",
        throughput_ops=1.0 / service if service else 0.0,
        latency_s=service * cost.client_threads,
        requests=len(trace),
        rounds=len(trace),
        sim_seconds=sim_seconds,
        extra={"fake_reads": tao.stats.fake_reads,
               "flushes": tao.stats.flushes},
    ), tao
