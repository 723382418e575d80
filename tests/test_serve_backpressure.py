"""Backpressure properties: bounded queues, retryable shedding, clean traces.

Three invariants under seeded burst load:

1. the pending queue never exceeds its cap (``high_water <= queue_cap``);
2. every shed request surfaces as a retryable
   :class:`~repro.errors.OverloadedError`, never a silent drop or a
   fatal error;
3. shedding happens *before* the proxy — the adversary-visible storage
   trace of the admitted requests is byte-identical to a serial replay,
   so admission control adds no side channel.
"""

from __future__ import annotations

import asyncio

from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import OverloadedError, is_retryable
from repro.seeding import seeded_rng
from repro.serve import AsyncFrontend, OnFillPolicy
from repro.testing.identity import trace_digest
from repro.workloads.ycsb import key_name


def _twin_datastore(seed: int = 101) -> WaffleDatastore:
    config = WaffleConfig(n=200, b=20, r=8, f_d=4, d=50, c=30,
                          value_size=64, seed=seed)
    items = {key_name(i): b"value-%d" % i for i in range(200)}
    return WaffleDatastore(config, items,
                           keychain=KeyChain.from_seed(7), log_ids=True)


def _burst(frontend: AsyncFrontend, n_requests: int, seed: int):
    """Fire a seeded burst; return (values, outcomes) after drain.

    The whole burst is offered before the round thread starts, so what
    is admitted and shed does not depend on how fast the host is."""
    rng = seeded_rng(seed, stream=0)
    keys = [key_name(rng.randrange(200)) for _ in range(n_requests)]

    async def drive():
        tasks = [asyncio.ensure_future(frontend.get(key)) for key in keys]
        await asyncio.sleep(0)
        await frontend.start()
        await frontend.close()
        return await asyncio.gather(*tasks, return_exceptions=True)

    return keys, asyncio.run(drive())


class TestQueueBound:
    def test_high_water_never_exceeds_cap(self):
        datastore = _twin_datastore()
        frontend = AsyncFrontend(datastore, policy=OnFillPolicy(8),
                                 queue_cap=16)
        _, outcomes = _burst(frontend, 100, seed=5)
        stats = frontend.stats()
        assert stats["high_water"] <= 16
        assert stats["depth"] == 0  # fully drained at close
        assert stats["shed"] > 0  # the burst genuinely overflowed
        assert stats["admitted"] + stats["shed"] == 100

    def test_every_request_is_accounted_for(self):
        datastore = _twin_datastore()
        frontend = AsyncFrontend(datastore, policy=OnFillPolicy(8),
                                 queue_cap=16)
        _, outcomes = _burst(frontend, 100, seed=5)
        completed = [o for o in outcomes if isinstance(o, bytes)]
        shed = [o for o in outcomes if isinstance(o, OverloadedError)]
        assert len(completed) + len(shed) == 100
        assert not [o for o in outcomes
                    if isinstance(o, Exception)
                    and not isinstance(o, OverloadedError)]

    def test_nothing_shed_under_the_cap(self):
        datastore = _twin_datastore()
        frontend = AsyncFrontend(datastore, policy=OnFillPolicy(8),
                                 queue_cap=256)
        _, outcomes = _burst(frontend, 64, seed=5)
        assert all(isinstance(o, bytes) for o in outcomes)
        assert frontend.stats()["shed"] == 0


class TestShedSemantics:
    def test_shed_requests_are_retryable_overloaded(self):
        datastore = _twin_datastore()
        frontend = AsyncFrontend(datastore, policy=OnFillPolicy(8),
                                 queue_cap=8)
        _, outcomes = _burst(frontend, 48, seed=11)
        shed = [o for o in outcomes if isinstance(o, Exception)]
        assert shed, "burst should overflow a cap of 8"
        for error in shed:
            assert isinstance(error, OverloadedError)
            assert is_retryable(error)
            assert "retry" in str(error)

    def test_shed_then_retry_succeeds(self):
        """The retry contract: the same request admitted a moment later."""
        datastore = _twin_datastore()

        async def scenario():
            frontend = AsyncFrontend(datastore, policy=OnFillPolicy(4),
                                     queue_cap=4)
            first = [asyncio.ensure_future(frontend.get(key_name(i)))
                     for i in range(4)]
            await asyncio.sleep(0)
            # Queue is at cap (and no round can fire before start): this
            # one must shed...
            try:
                await frontend.get(key_name(7))
            except OverloadedError:
                shed_once = True
            else:
                shed_once = False
            await frontend.start()
            await asyncio.gather(*first)  # round fires, queue drains
            # ...and the retry goes through against the emptied queue,
            # drained by close() as a final partial round.
            retry = asyncio.ensure_future(frontend.get(key_name(7)))
            await asyncio.sleep(0)
            await frontend.close()
            return shed_once, await retry

        shed_once, value = asyncio.run(scenario())
        assert shed_once
        assert value == b"value-7"


class TestTraceNeutrality:
    def test_shedding_leaves_the_trace_serial_identical(self):
        """Admitted rounds replayed serially on a twin digest equal."""
        concurrent = _twin_datastore()
        serial = _twin_datastore()
        partitions: list[list] = []

        def spy(requests):
            partitions.append(list(requests))
            return concurrent.execute_batch(requests)

        frontend = AsyncFrontend(execute=spy, r=8,
                                 policy=OnFillPolicy(8), queue_cap=16)
        _, outcomes = _burst(frontend, 100, seed=23)
        assert frontend.stats()["shed"] > 0

        for batch in partitions:
            serial.execute_batch(batch)
        assert trace_digest(concurrent.recorder.records) == \
            trace_digest(serial.recorder.records)

    def test_shed_requests_never_reach_storage(self):
        """Record count is a function of rounds executed, not offered load."""
        overloaded = _twin_datastore()
        frontend = AsyncFrontend(overloaded, policy=OnFillPolicy(8),
                                 queue_cap=16)
        _burst(frontend, 100, seed=23)
        rounds = frontend.stats()["rounds"]

        # A lighter run with the same number of *rounds* leaves exactly
        # as many records: offered-but-shed load is storage-invisible.
        calm = _twin_datastore()
        calm_frontend = AsyncFrontend(calm, policy=OnFillPolicy(8),
                                      queue_cap=4096)
        _burst(calm_frontend, rounds * 8, seed=23)
        assert calm_frontend.stats()["rounds"] == rounds
        assert len(overloaded.recorder.records) == \
            len(calm.recorder.records)
