"""Sharded serving: one coalescing frontend per partition, one round
thread for all of them.

:class:`ShardedFrontend` is the multi-proxy composition of
:class:`~repro.serve.frontend.AsyncFrontend`: live get/put traffic is
key-hash-routed (via :meth:`PartitionedWaffle.partition_of`, the same
keyed-blake2s router the batch path uses) to P *independent* frontends,
one per :class:`~repro.scaleout.PartitionedWaffle` partition.  Each
partition frontend owns its release policy instance, its clock reads,
its bounded admission queue, and drives its own Waffle datastore (own
proxy, keychain, server) — nothing is shared across partitions except
the one thread their rounds run on.

One thread, not P: a round is pure Python under the GIL and every
partition's server is in-process, so a second round thread only convoys
on the lock (0.56–0.69x of one, DESIGN.md §10–11).  In one process
partitions are routing and isolation, not throughput.  Each frontend
has at most one round in flight, so the thread's FIFO queue
round-robins the busy partitions.

Why interleaving partitions is allowed (DESIGN.md §14): partitions are
fully disjoint oblivious deployments.  A per-partition adversary — one
tape per partition's server — sees exactly the round sequence that
partition's frontend committed, and each frontend is the PR-8 frontend
verbatim, so each tape is byte-identical to a serial single-proxy
deployment over that partition's keys.  Interleaving reorders events
only *between* tapes, which no per-partition adversary observes.  The
cross-partition observer additionally learns per-partition round counts
and timing — the same (documented) multinomial leakage the batched
scale-out path already concedes, and with epoch-aligned grid policies
not even that: every partition commits to the *same* fixed grid, so the
merged release schedule deduplicates to a single constant-gap series
and the load-inference attack scores exactly 0.0 against it.

Shed semantics under per-partition admission: a request is shed by the
queue of the one partition that owns its key.  A flash crowd on keys
hashing to partition 3 overloads (and sheds from) partition 3 only;
other partitions keep admitting — and because a shed request never
reaches any proxy, the per-partition traces stay byte-identical to a
run that was offered only the admitted requests.  Likewise a request
the owner would refuse (unknown key, oversize value): each frontend has
its partition's datastore, so ``submit`` refuses it alone.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.core.batch import ClientRequest
from repro.scaleout.partitioned import PartitionedWaffle
from repro.serve.frontend import AsyncFrontend, RoundExecutor
from repro.serve.policy import OnFillPolicy, ReleasePolicy
from repro.workloads.trace import Operation

__all__ = ["ShardedFrontend"]

#: Builds partition ``index``'s release policy (fresh instance each —
#: policies are stateful schedules and must never be shared).
PolicyFactory = Callable[[int], ReleasePolicy]

#: Test/chaos hook: wraps partition ``index``'s round executor.
ExecuteWrapper = Callable[[int, RoundExecutor], RoundExecutor]


class ShardedFrontend:
    """Key-hash-routed fan-out over P per-partition `AsyncFrontend`s.

    Parameters
    ----------
    partitioned:
        The :class:`PartitionedWaffle` deployment to serve.  Its router
        decides which partition owns each key; its per-partition
        datastores execute the rounds.
    policy_factory:
        ``index -> ReleasePolicy`` — every partition gets its own
        instance (default: :class:`OnFillPolicy` at the partition R).
        Grid policies (fixed/randomized interval) built by the factory
        are epoch-aligned across partitions at :meth:`start`.
    queue_cap:
        Per-partition admission cap (total pending capacity is
        ``P * queue_cap``; shedding is per owning partition).
    clock:
        Timestamp source handed to every partition frontend.
    max_round_retries / on_retry:
        Per-partition retry budget, as on :class:`AsyncFrontend`.
    wrap_execute:
        Optional ``(index, execute) -> execute`` wrapper — the chaos
        battery splices per-partition fault injection here, exactly
        like the single-proxy harness wraps ``execute``.
    """

    def __init__(self, partitioned: PartitionedWaffle, *,
                 policy_factory: PolicyFactory | None = None,
                 queue_cap: int = 1024,
                 clock: Callable[[], float] = time.perf_counter,
                 max_round_retries: int = 0,
                 on_retry: Callable[[], None] | None = None,
                 wrap_execute: ExecuteWrapper | None = None) -> None:
        self.partitioned = partitioned
        self.partitions = partitioned.partitions
        self._clock = clock
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-round")
        if policy_factory is None:
            def policy_factory(index: int) -> ReleasePolicy:
                return OnFillPolicy(partitioned.config.r)
        self.frontends: list[AsyncFrontend] = []
        for index, store in enumerate(partitioned.stores):
            execute: RoundExecutor = store.execute_batch
            if wrap_execute is not None:
                execute = wrap_execute(index, execute)
            self.frontends.append(AsyncFrontend(
                store, execute=execute,
                policy=policy_factory(index), queue_cap=queue_cap,
                clock=clock, max_round_retries=max_round_retries,
                on_retry=on_retry, executor=self._executor,
                shard=str(index)))
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ShardedFrontend":
        """Align grid epochs, then start every partition dispatcher.

        The shared epoch is read *once*, before any dispatcher can arm
        a policy, so P fixed-interval schedules commit to one float-
        identical grid — the alignment the §14 merged-schedule argument
        rests on.  Policies without a grid (on-fill, max-wait) have no
        ``align`` and are skipped.
        """
        if not self._started:
            epoch = self._clock()
            for frontend in self.frontends:
                align = getattr(frontend.policy, "align", None)
                if align is not None:
                    align(epoch)
            await asyncio.gather(*(f.start() for f in self.frontends))
            self._started = True
        return self

    async def close(self) -> None:
        """Drain every partition's stragglers, then stop the round thread
        — also when a partition's ``close()`` raises (re-raised after)."""
        try:
            outcomes = await asyncio.gather(
                *(f.close() for f in self.frontends), return_exceptions=True)
        finally:
            self._executor.shutdown(wait=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

    async def __aenter__(self) -> "ShardedFrontend":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # client interface
    # ------------------------------------------------------------------
    async def get(self, key: str) -> bytes:
        return await self.submit(ClientRequest(op=Operation.READ, key=key))

    async def put(self, key: str, value: bytes) -> bytes:
        return await self.submit(
            ClientRequest(op=Operation.WRITE, key=key, value=value))

    async def submit(self, request: ClientRequest) -> bytes:
        owner = self.partitioned.partition_of(request.key)
        return await self.frontends[owner].submit(request)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def merged_release_times(self) -> list[float]:
        """The cross-partition adversary's schedule view.

        Sorted union of every partition's committed release instants,
        with exact duplicates collapsed: epoch-aligned grid partitions
        commit to float-identical ticks, so P simultaneous releases are
        one observable event — the merged series is the single-proxy
        grid, and scores identically under the timing attacks.
        """
        merged = sorted(t for frontend in self.frontends
                        for t in frontend.release_times)
        out: list[float] = []
        for t in merged:
            if not out or t != out[-1]:
                out.append(t)
        return out

    def per_partition_stats(self) -> list[dict]:
        """One stats row per partition (SHARDS replies, bench reports)."""
        return [frontend.stats() for frontend in self.frontends]

    def stats(self) -> dict:
        """Aggregate stats row, shape-compatible with `AsyncFrontend`.

        Counters sum across partitions (``high_water`` too: the rows in
        :meth:`per_partition_stats` keep the per-queue peaks; the sum
        bounds total simultaneously-pending requests).
        """
        rows = self.per_partition_stats()
        aggregate = {
            "cap": sum(row["cap"] for row in rows),
            "depth": sum(row["depth"] for row in rows),
            "admitted": sum(row["admitted"] for row in rows),
            "shed": sum(row["shed"] for row in rows),
            "high_water": sum(row["high_water"] for row in rows),
            "policy": rows[0]["policy"] if rows else "none",
            "rounds": sum(row["rounds"] for row in rows),
            "real_requests": sum(row["real_requests"] for row in rows),
            "empty_rounds": sum(row["empty_rounds"] for row in rows),
            "partitions": self.partitions,
        }
        return aggregate
