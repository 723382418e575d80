"""Sharded serving battery: routing, twin equivalence, chaos, alignment.

The core claims of the multi-proxy scale-out (DESIGN.md §14):

* N concurrent clients fanned across P partition frontends receive
  byte-identical responses, and each partition's adversary-visible
  storage trace is byte-identical to a serial replay of the same round
  partitions on an identically-seeded twin — shard concurrency reorders
  events only *between* per-partition tapes;
* faults are contained per partition: a retryable fault recovers through
  the partition's own retry budget, a fatal partition fails only its own
  keys' requests, shedding sheds only from the owning partition's
  queue, and a request the owning proxy would refuse is refused alone;
* every partition's rounds run on one round thread, which ``close()``
  always stops;
* the §8 uniformity oracle (α/β bounds, id invariants) holds per
  partition when driven through the sharded frontend;
* epoch-aligned grid policies commit to float-identical schedules, so
  the merged release schedule deduplicates to the single-proxy grid and
  the load-inference attack scores exactly 0.0 against it.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.analysis.timing import load_inference_attack
from repro.analysis.uniformity import full_report, verify_storage_invariants
from repro.core.batch import ClientResponse
from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    IntegrityError,
    KeyNotFoundError,
    OverloadedError,
)
from repro.scaleout import PartitionedWaffle
from repro.serve import AsyncServeClient, ServeServer, ShardedFrontend
from repro.serve.policy import (
    FixedIntervalPolicy,
    MaxWaitPolicy,
    make_policy,
)
from repro.testing.identity import trace_digest
from repro.testing.episodes import chaos_config
from repro.testing.serving import gap_ticks

PARTITIONS = 2
SEED = 11


def _twin_store(record: bool = False, log_ids: bool = False,
                partitions: int = PARTITIONS):
    """Stores built this way are byte-for-byte clones of each other."""
    cfg = chaos_config(SEED)
    candidates = (f"key{i:08d}" for i in range(100_000))
    keys = PartitionedWaffle.plan_partitions(candidates, cfg.n, partitions,
                                             master_seed=SEED)
    items = {key: b"val-" + key.encode() for key in keys}
    store = PartitionedWaffle(cfg, items, partitions, master_seed=SEED,
                              record=record, log_ids=log_ids)
    return cfg, keys, items, store


def _capturing_wrapper(captured):
    """wrap_execute hook that records each partition's round partitions."""

    def wrap(index, execute):
        def spy(requests):
            captured[index].append(list(requests))
            return execute(requests)
        return spy

    return wrap


class TestFanInEquivalence:
    def test_concurrent_fan_in_matches_serial_twin(self):
        """Every key fetched concurrently == serial rounds on a twin."""
        cfg, keys, items, live = _twin_store(record=True, log_ids=True)
        _, _, _, twin = _twin_store(record=True, log_ids=True)
        captured = [[] for _ in range(PARTITIONS)]

        async def scenario():
            wrapper = _capturing_wrapper(captured)
            async with ShardedFrontend(live,
                                       wrap_execute=wrapper) as frontend:
                return await asyncio.gather(
                    *(frontend.get(key) for key in keys))

        values = asyncio.run(scenario())
        assert values == [items[key] for key in keys]
        # Each partition coalesced its n keys into n/r full rounds.
        assert [len(rounds) for rounds in captured] == \
            [cfg.n // cfg.r] * PARTITIONS

        for index, rounds in enumerate(captured):
            for batch in rounds:
                twin.stores[index].execute_batch(batch)
        for index in range(PARTITIONS):
            assert trace_digest(live.stores[index].recorder.records) == \
                trace_digest(twin.stores[index].recorder.records)

    def test_mixed_read_write_fan_in_matches_serial_twin(self):
        _, keys, items, live = _twin_store(record=True, log_ids=True)
        _, _, _, twin = _twin_store(record=True, log_ids=True)
        captured = [[] for _ in range(PARTITIONS)]
        sample = keys[::3][:48]

        async def scenario():
            wrapper = _capturing_wrapper(captured)
            frontend = ShardedFrontend(live, wrap_execute=wrapper)
            await frontend.start()
            ops = []
            for i, key in enumerate(sample):
                if i % 3 == 0:
                    ops.append(frontend.put(key, b"mixed-%d" % i))
                else:
                    ops.append(frontend.get(key))
            await asyncio.gather(*ops)
            readback = [asyncio.ensure_future(frontend.get(sample[0]))]
            await asyncio.sleep(0)
            await frontend.close()  # drains partial straggler rounds
            return await asyncio.gather(*readback)

        readback = asyncio.run(scenario())
        assert readback == [b"mixed-0"]

        for index, rounds in enumerate(captured):
            for batch in rounds:
                twin.stores[index].execute_batch(batch)
        for index in range(PARTITIONS):
            assert trace_digest(live.stores[index].recorder.records) == \
                trace_digest(twin.stores[index].recorder.records)

    def test_requests_route_to_owning_partition(self):
        _, keys, _, store = _twin_store()
        captured = [[] for _ in range(PARTITIONS)]
        sample = keys[:32]

        async def scenario():
            wrapper = _capturing_wrapper(captured)
            async with ShardedFrontend(store,
                                       wrap_execute=wrapper) as frontend:
                await asyncio.gather(*(frontend.get(key) for key in sample))

        asyncio.run(scenario())
        for index, rounds in enumerate(captured):
            for batch in rounds:
                for request in batch:
                    assert store.partition_of(request.key) == index


class TestPartitionFaultContainment:
    def test_retryable_fault_recovers_within_partition(self):
        """One flaky partition heals through its own retry budget."""
        _, keys, items, store = _twin_store()
        failures = {"remaining": 2}
        retries = []

        def wrap(index, execute):
            if index != 0:
                return execute

            def flaky(requests):
                if failures["remaining"] > 0:
                    failures["remaining"] -= 1
                    raise BackendUnavailableError("injected transient")
                return execute(requests)
            return flaky

        async def scenario():
            frontend = ShardedFrontend(
                store, max_round_retries=2,
                on_retry=lambda: retries.append(1), wrap_execute=wrap)
            async with frontend:
                return await asyncio.gather(
                    *(frontend.get(key) for key in keys[:32]))

        values = asyncio.run(scenario())
        assert values == [items[key] for key in keys[:32]]
        assert failures["remaining"] == 0
        assert len(retries) == 2

    def test_fatal_partition_leaves_others_live(self):
        """Partition 0 poisoned: only its keys fail, partition 1 serves
        — and partition 1's §8 oracle still holds afterwards."""
        cfg, keys, items, store = _twin_store(record=True, log_ids=True)
        dead = 0

        def wrap(index, execute):
            if index != dead:
                return execute

            def poisoned(requests):
                raise IntegrityError("injected fatal partition fault")
            return poisoned

        dead_keys = [k for k in keys if store.partition_of(k) == dead][:8]
        live_keys = [k for k in keys if store.partition_of(k) != dead][:24]

        async def scenario():
            async with ShardedFrontend(store,
                                       wrap_execute=wrap) as frontend:
                outcomes = await asyncio.gather(
                    *(frontend.get(key) for key in dead_keys),
                    return_exceptions=True)
                survivors = await asyncio.gather(
                    *(frontend.get(key) for key in live_keys))
                return outcomes, survivors

        outcomes, survivors = asyncio.run(scenario())
        assert all(isinstance(outcome, IntegrityError)
                   for outcome in outcomes)
        assert survivors == [items[key] for key in live_keys]

        # The surviving partition's trace still satisfies §8.
        records = store.stores[1].recorder.records
        verify_storage_invariants(records)
        report = full_report(records, store.stores[1].proxy.id_log)
        assert report.max_alpha <= cfg.alpha_bound_effective()
        assert report.min_beta >= cfg.beta_bound()

    def test_shedding_is_per_owning_partition(self):
        """A flood on partition 0's keys sheds there; partition 1 admits."""
        _, keys, items, store = _twin_store()
        cap = 4
        zero_keys = [k for k in keys if store.partition_of(k) == 0]
        one_keys = [k for k in keys if store.partition_of(k) == 1]

        async def scenario():
            frontend = ShardedFrontend(store, queue_cap=cap)
            # Dispatchers not started: submissions pend in the queues.
            flood = [asyncio.ensure_future(frontend.get(key))
                     for key in zero_keys[:cap + 3]]
            await asyncio.sleep(0)
            ok = [asyncio.ensure_future(frontend.get(key))
                  for key in one_keys[:cap]]
            await asyncio.sleep(0)
            await frontend.start()
            await frontend.close()
            flood_out = await asyncio.gather(*flood,
                                             return_exceptions=True)
            ok_out = await asyncio.gather(*ok)
            return flood_out, ok_out

        flood_out, ok_out = asyncio.run(scenario())
        shed = [o for o in flood_out if isinstance(o, OverloadedError)]
        served = [o for o in flood_out if isinstance(o, bytes)]
        assert len(shed) == 3
        assert served == [items[key] for key in zero_keys[:cap]]
        assert ok_out == [items[key] for key in one_keys[:cap]]


class TestSecurityComposition:
    def test_per_partition_oracle_under_concurrent_serving(self):
        """§8 bounds hold per partition behind the sharded frontend."""
        cfg, keys, _, store = _twin_store(record=True, log_ids=True)

        async def scenario():
            async with ShardedFrontend(store) as frontend:
                for start in range(0, len(keys), 48):
                    await asyncio.gather(
                        *(frontend.get(key)
                          for key in keys[start:start + 48]))

        asyncio.run(scenario())
        for datastore in store.stores:
            records = datastore.recorder.records
            verify_storage_invariants(records)
            report = full_report(records, datastore.proxy.id_log)
            assert report.max_alpha <= cfg.alpha_bound_effective()
            assert report.min_beta >= cfg.beta_bound()


class TestGridAlignment:
    def test_start_aligns_every_grid_policy_to_one_epoch(self):
        cfg, _, _, store = _twin_store()

        async def scenario():
            frontend = ShardedFrontend(
                store,
                policy_factory=lambda i: FixedIntervalPolicy(0.05))
            await frontend.start()
            epochs = [f.policy._epoch for f in frontend.frontends]
            await frontend.close()
            return epochs

        epochs = asyncio.run(scenario())
        assert None not in epochs
        assert len(set(epochs)) == 1

    def test_realign_is_rejected(self):
        policy = FixedIntervalPolicy(0.05)
        policy.align(10.0)
        with pytest.raises(ConfigurationError):
            policy.align(11.0)
        armed = FixedIntervalPolicy(0.05)
        armed.due(0, None, 3.0)  # first query arms the grid
        with pytest.raises(ConfigurationError):
            armed.align(3.0)

    def test_merged_aligned_schedule_scores_zero(self):
        """P aligned grids merge (deduplicated) into one schedule of whole
        ticks even when the offered load is wildly skewed: leakage 0.0
        unless the host stalled across a tick (which shows as a gap of two
        ticks or more, never as a fraction of one)."""
        cfg, keys, _, store = _twin_store()

        def standin(index, execute):
            def run_round(requests):
                return [ClientResponse(request_id=req.request_id,
                                       key=req.key, value=b"")
                        for req in requests]
            return run_round

        merged: list[float] = []
        per_rounds: list[int] = []
        zero_keys = [k for k in keys if store.partition_of(k) == 0]

        async def scenario():
            frontend = ShardedFrontend(
                store,
                policy_factory=lambda i: make_policy(
                    "fixed_interval", cfg.r, interval_s=0.02),
                wrap_execute=standin)
            await frontend.start()
            # All real traffic targets partition 0 — the merged schedule
            # must still not reflect that skew.
            for _ in range(3):
                await asyncio.gather(
                    *(frontend.get(key) for key in zero_keys[:12]))
            await asyncio.sleep(0.05)
            await frontend.close()
            merged.extend(frontend.merged_release_times())
            per_rounds.extend(len(f.release_times)
                              for f in frontend.frontends)

        asyncio.run(scenario())
        assert len(merged) >= 3
        # Dedup happened: aligned ticks collapse across partitions.
        assert len(merged) < sum(per_rounds)
        # Synthetic skewed ground truth: the attack still finds nothing.
        true_rates = [100.0 if i % 2 == 0 else 1.0
                      for i in range(len(merged) - 1)]
        attack = load_inference_attack(merged, true_rates, cfg.r)
        ticks = gap_ticks(merged, 0.02)
        assert ticks[0] == 1.0
        assert all(gap == int(gap) for gap in ticks)
        if ticks == [1.0]:
            assert attack["leakage_score"] == 0.0


class TestRefusedAlone:
    def test_owner_refuses_alone_and_traces_match_a_valid_only_run(self):
        """An unknown key and an oversize value fail their own callers;
        the requests batched around them are served, and each partition's
        tape equals a twin's that was offered only the valid requests."""
        cfg, keys, items, live = _twin_store(record=True)
        _, _, _, twin = _twin_store(record=True)
        by_owner = [[k for k in keys if live.partition_of(k) == index][:cfg.r]
                    for index in range(PARTITIONS)]
        valid = by_owner[0] + by_owner[1]  # one full round per partition

        async def offer(store, offenders: bool):
            # Max-wait only so that a regression drains instead of
            # hanging; every round here fills and fires at once.
            async with ShardedFrontend(
                    store, policy_factory=lambda i: MaxWaitPolicy(
                        cfg.r, 0.005)) as frontend:
                calls = [frontend.get(key) for key in valid]
                if offenders:
                    calls.insert(1, frontend.get("no-such-key"))
                    calls.insert(cfg.r + 2, frontend.put(
                        by_owner[1][0], b"x" * cfg.value_size))
                outcomes = await asyncio.gather(*calls,
                                                return_exceptions=True)
                return outcomes, frontend.stats()

        outcomes, stats = asyncio.run(offer(live, offenders=True))
        oversize = outcomes.pop(cfg.r + 2)
        unknown = outcomes.pop(1)
        assert isinstance(unknown, KeyNotFoundError)
        assert isinstance(oversize, ConfigurationError)
        assert outcomes == [items[key] for key in valid]
        # Refused before admission: neither admitted nor shed.
        assert (stats["admitted"], stats["shed"], stats["rounds"]) == \
            (len(valid), 0, PARTITIONS)

        asyncio.run(offer(twin, offenders=False))
        for index in range(PARTITIONS):
            assert trace_digest(live.stores[index].recorder.records) == \
                trace_digest(twin.stores[index].recorder.records)


class TestExecutorSizing:
    def test_one_thread_runs_every_partitions_rounds(self):
        """P=2 with several rounds queued on each partition: one round
        thread ran them all, and it is not the event loop's thread."""
        _, keys, items, store = _twin_store()
        ran_on: list[set[int]] = [set() for _ in range(PARTITIONS)]

        def wrap(index, execute):
            def spy(requests):
                ran_on[index].add(threading.get_ident())
                return execute(requests)
            return spy

        async def scenario():
            async with ShardedFrontend(store, wrap_execute=wrap) as frontend:
                values = await asyncio.gather(
                    *(frontend.get(key) for key in keys))
            return values, threading.get_ident()

        values, loop_thread = asyncio.run(scenario())
        assert values == [items[key] for key in keys]
        assert all(ran_on)  # every partition ran rounds
        round_threads = set().union(*ran_on)
        assert len(round_threads) == 1
        assert loop_thread not in round_threads

    def test_close_stops_the_round_thread_when_a_partition_close_raises(self):
        cfg, keys, _, store = _twin_store()
        round_threads: set[threading.Thread] = set()

        def wrap(index, execute):
            def spy(requests):
                round_threads.add(threading.current_thread())
                return execute(requests)
            return spy

        async def scenario():
            frontend = ShardedFrontend(store, wrap_execute=wrap)
            await frontend.start()
            await asyncio.gather(
                *(frontend.get(key) for key in keys[:cfg.r]))
            real_close = frontend.frontends[0].close

            async def broken_close():
                await real_close()
                raise RuntimeError("injected close failure")

            frontend.frontends[0].close = broken_close
            with pytest.raises(RuntimeError, match="injected"):
                await frontend.close()

        asyncio.run(scenario())
        assert round_threads
        for thread in round_threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_partitions_share_the_round_executor(self):
        _, _, _, store = _twin_store()
        frontend = ShardedFrontend(store)
        # One shared executor across all partition frontends, not owned
        # by any of them.
        for partition_frontend in frontend.frontends:
            assert partition_frontend._executor is frontend._executor
            assert not partition_frontend._owns_executor
        frontend._executor.shutdown(wait=False)

    def test_stats_aggregate_and_per_partition(self):
        _, keys, _, store = _twin_store()

        async def scenario():
            async with ShardedFrontend(store) as frontend:
                await asyncio.gather(
                    *(frontend.get(key) for key in keys[:16]))
                return frontend.stats(), frontend.per_partition_stats()

        stats, rows = asyncio.run(scenario())
        assert stats["partitions"] == PARTITIONS
        # The single-frontend row plus the partition count, nothing else.
        assert set(stats) == {"cap", "depth", "admitted", "shed",
                              "high_water", "policy", "rounds",
                              "real_requests", "empty_rounds", "partitions"}
        assert len(rows) == PARTITIONS
        assert [row["shard"] for row in rows] == \
            [str(i) for i in range(PARTITIONS)]
        assert sum(row["admitted"] for row in rows) == stats["admitted"]
        assert sum(row["rounds"] for row in rows) == stats["rounds"]


class TestMetrics:
    def test_one_serve_family_labelled_by_shard(self):
        """Sharded frontends emit the ``serve.*`` names every frontend
        emits, with a ``shard`` label — not a second, parallel family."""
        cfg, keys, _, store = _twin_store()
        sample = keys[:cfg.r] + keys[-cfg.r:]  # one round per partition

        async def scenario():
            async with ShardedFrontend(store) as frontend:
                await asyncio.gather(*(frontend.get(key) for key in sample))

        with obs.capture() as handle:
            asyncio.run(scenario())
            snap = handle.registry.snapshot()
        names = set(snap["counters"]) | set(snap["gauges"])
        for shard in ("0", "1"):
            assert snap["counters"][
                f"serve.requests.total{{op=read,shard={shard}}}"] == cfg.r
            assert f"serve.pending.depth{{shard={shard}}}" in names
            assert snap["counters"][
                f"serve.rounds.total{{policy=on_fill,shard={shard}}}"] == 1
        assert not [name for name in names if name.startswith("serve.shard.")]


class TestServerIntegration:
    def test_sharded_tcp_round_trip_and_shards_command(self):
        cfg, keys, items, store = _twin_store()
        sample = keys[:24]

        async def scenario():
            # Max-wait: a wave's share of a partition may be smaller than
            # R, and the next wave only starts once this one completes.
            frontend = ShardedFrontend(
                store,
                policy_factory=lambda i: MaxWaitPolicy(cfg.r, 0.005))
            async with ServeServer(frontend) as server:
                host, port = server.address
                clients = [AsyncServeClient(host, port) for _ in range(6)]
                for client in clients:
                    await client.connect()
                try:
                    values = []
                    for start in range(0, len(sample), 6):
                        # One in-flight request per connection per wave.
                        values.extend(await asyncio.gather(
                            *(client.get(key)
                              for client, key in zip(
                                  clients, sample[start:start + 6]))))
                    shard_rows = await clients[0].shards()
                    stats = await clients[0].stats()
                finally:
                    for client in clients:
                        await client.close()
                return values, shard_rows, stats

        values, shard_rows, stats = asyncio.run(scenario())
        assert values == [items[key] for key in sample]
        assert [row["partition"] for row in shard_rows] == \
            list(range(PARTITIONS))
        assert sum(row["admitted"] for row in shard_rows) == \
            stats["admitted"] == len(sample)
