"""Concurrency battery: fan-in equivalence, slow clients, disconnects.

The core claim: N concurrent clients funnelled through the coalescing
frontend produce byte-identical responses *and* a byte-identical
adversary-visible storage trace to the serial path executing the same
round partitions — concurrency changes scheduling, never results or
the trace.  Degenerate clients (slow-loris stalls, mid-round
disconnects) must never stall or corrupt a round for everyone else.
"""

from __future__ import annotations

import asyncio
import struct
import sys

from repro.core.batch import ClientResponse
from repro.core.config import WaffleConfig
from repro.core.datastore import ROUND_ANSWER, WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import OverloadedError
from repro.serve import (
    AsyncFrontend,
    AsyncServeClient,
    MaxWaitPolicy,
    OnFillPolicy,
    ServeServer,
)
from repro.testing.identity import trace_digest
from repro.workloads.ycsb import key_name


def _twin_config(seed: int = 101) -> WaffleConfig:
    return WaffleConfig(n=200, b=20, r=8, f_d=4, d=50, c=30,
                        value_size=64, seed=seed)


def _twin_datastore(seed: int = 101) -> WaffleDatastore:
    """Datastores built this way are byte-for-byte clones of each other."""
    items = {key_name(i): b"value-%d" % i for i in range(200)}
    return WaffleDatastore(_twin_config(seed), items,
                           keychain=KeyChain.from_seed(7), log_ids=True)


class TestFanInEquivalence:
    def test_concurrent_fan_in_matches_serial_path(self):
        """48 clients through the frontend == serial rounds on a twin."""
        concurrent = _twin_datastore()
        serial = _twin_datastore()
        partitions: list[list] = []

        def spy(requests):
            partitions.append(list(requests))
            return concurrent.execute_batch(requests)

        async def scenario():
            async with AsyncFrontend(execute=spy, r=8) as frontend:
                return await asyncio.gather(
                    *(frontend.get(key_name(i)) for i in range(48)))

        values = asyncio.run(scenario())

        # Clients observed exactly the stored values, in submission order.
        assert values == [b"value-%d" % i for i in range(48)]
        assert [len(batch) for batch in partitions] == [8] * 6

        # Replay the identical partitions serially on the twin: both the
        # client-visible bytes and the adversary-visible trace match.
        serial_values = {}
        for batch in partitions:
            for resp in serial.execute_batch(batch):
                serial_values[resp.request_id] = resp.value
        concurrent_values = {
            req.request_id: value
            for batch, chunk in zip(partitions,
                                    (values[i:i + 8]
                                     for i in range(0, 48, 8)))
            for req, value in zip(batch, chunk)
        }
        assert concurrent_values == serial_values
        assert trace_digest(concurrent.recorder.records) == \
            trace_digest(serial.recorder.records)

    def test_mixed_read_write_fan_in_matches_serial(self):
        concurrent = _twin_datastore()
        serial = _twin_datastore()
        partitions: list[list] = []

        def spy(requests):
            partitions.append(list(requests))
            return concurrent.execute_batch(requests)

        async def scenario():
            frontend = AsyncFrontend(execute=spy, r=8)
            await frontend.start()
            ops = []
            for i in range(32):
                if i % 3 == 0:
                    ops.append(frontend.put(key_name(i),
                                            b"mixed-%d" % i))
                else:
                    ops.append(frontend.get(key_name(i)))
            await asyncio.gather(*ops)
            # Read a few writes back; only 2 pending under on-fill r=8,
            # so close() must drain them as a final partial round.
            readback_tasks = [
                asyncio.ensure_future(frontend.get(key_name(0))),
                asyncio.ensure_future(frontend.get(key_name(30))),
            ]
            await asyncio.sleep(0)
            await frontend.close()
            return await asyncio.gather(*readback_tasks)

        readback = asyncio.run(scenario())
        assert readback == [b"mixed-0", b"mixed-30"]

        for batch in partitions:
            serial.execute_batch(batch)
        assert trace_digest(concurrent.recorder.records) == \
            trace_digest(serial.recorder.records)

    def test_interleaved_tcp_clients_match_serial(self):
        """Full stack: many sockets, one coalesced trace, twin-equal."""
        concurrent = _twin_datastore()
        serial = _twin_datastore()
        partitions: list[list] = []

        def spy(requests):
            partitions.append(list(requests))
            return concurrent.execute_batch(requests)

        async def scenario():
            frontend = AsyncFrontend(execute=spy, r=8,
                                     policy=MaxWaitPolicy(8, 0.01))
            async with ServeServer(frontend) as server:
                host, port = server.address
                clients = [AsyncServeClient(host, port) for _ in range(6)]
                for client in clients:
                    await client.connect()
                try:
                    rounds = []
                    for wave in range(4):
                        rounds.append(await asyncio.gather(
                            *(client.get(key_name(wave * 6 + i))
                              for i, client in enumerate(clients))))
                    return rounds
                finally:
                    for client in clients:
                        await client.close()

        waves = asyncio.run(scenario())
        for wave, values in enumerate(waves):
            assert values == [b"value-%d" % (wave * 6 + i)
                              for i in range(6)]
        for batch in partitions:
            serial.execute_batch(batch)
        assert trace_digest(concurrent.recorder.records) == \
            trace_digest(serial.recorder.records)


class TestDegenerateClients:
    def test_slow_loris_does_not_stall_other_clients(self, small_datastore):
        """A connection stalled mid-frame must not block round progress."""

        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.005))
            async with ServeServer(frontend) as server:
                host, port = server.address
                # The loris: sends half a length prefix, then goes quiet.
                loris_r, loris_w = await asyncio.open_connection(host, port)
                loris_w.write(b"\x00\x00")
                await loris_w.drain()

                async with AsyncServeClient(host, port) as client:
                    async def fetch_all():
                        # One connection is serial request/response;
                        # each get still rides its own coalesced round.
                        return [await client.get(key_name(i))
                                for i in range(4)]

                    values = await asyncio.wait_for(fetch_all(),
                                                    timeout=10.0)

                loris_w.close()
                try:
                    await loris_w.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return values, frontend.stats()

        values, stats = asyncio.run(scenario())
        assert values == [b"value-%d" % i for i in range(4)]
        assert stats["real_requests"] == 4

    def test_mid_round_disconnect_other_waiters_resolve(self,
                                                        small_datastore):
        """A client dying while its request is in-flight harms only it."""

        async def scenario():
            # r=2 on-fill: the round needs both requests, so the victim's
            # request is provably in the same round as the survivor's.
            frontend = AsyncFrontend(small_datastore, policy=OnFillPolicy(2))
            async with ServeServer(frontend) as server:
                host, port = server.address
                from repro.net.protocol import encode_message

                victim_r, victim_w = await asyncio.open_connection(host,
                                                                   port)
                payload = encode_message(["GET", key_name(0)])
                victim_w.write(struct.pack(">I", len(payload)) + payload)
                await victim_w.drain()
                await asyncio.sleep(0.05)  # request is now pending
                victim_w.close()  # vanish before the round releases

                async with AsyncServeClient(host, port) as client:
                    survivor = await asyncio.wait_for(
                        client.get(key_name(1)), timeout=10.0)
                    # The server survives; the next round (two fresh
                    # connections, one request each) also completes.
                    async with AsyncServeClient(host, port) as other:
                        again = await asyncio.gather(
                            client.get(key_name(2)),
                            other.get(key_name(3)))
                return survivor, again, frontend.stats()

        survivor, again, stats = asyncio.run(scenario())
        assert survivor == b"value-1"
        assert again == [b"value-2", b"value-3"]
        assert stats["rounds"] == 2
        assert stats["real_requests"] == 4

    def test_disconnect_does_not_corrupt_the_trace(self):
        """The dead client's round still executes with full batch shape."""
        concurrent = _twin_datastore()
        serial = _twin_datastore()
        partitions: list[list] = []

        def spy(requests):
            partitions.append(list(requests))
            return concurrent.execute_batch(requests)

        async def scenario():
            frontend = AsyncFrontend(execute=spy, r=2,
                                     policy=OnFillPolicy(2))
            async with ServeServer(frontend) as server:
                host, port = server.address
                from repro.net.protocol import encode_message

                victim_r, victim_w = await asyncio.open_connection(host,
                                                                   port)
                payload = encode_message(["GET", key_name(5)])
                victim_w.write(struct.pack(">I", len(payload)) + payload)
                await victim_w.drain()
                await asyncio.sleep(0.05)
                victim_w.close()

                async with AsyncServeClient(host, port) as client:
                    await client.get(key_name(6))

        asyncio.run(scenario())
        assert [len(batch) for batch in partitions] == [2]
        for batch in partitions:
            serial.execute_batch(batch)
        assert trace_digest(concurrent.recorder.records) == \
            trace_digest(serial.recorder.records)


class TestSharedStateAcrossThreads:
    @staticmethod
    def _short_switch_run(execute):
        """16 clients, 40 requests each, through a small queue with the
        interpreter switching threads every microsecond."""
        clients, per_client = 16, 40

        async def client(frontend):
            served = 0
            for _ in range(per_client):
                try:
                    served += await frontend.get(key_name(0)) == b"ok"
                except OverloadedError:
                    await asyncio.sleep(0)
            return served

        async def scenario():
            async with AsyncFrontend(execute=execute, r=4, queue_cap=8,
                                     policy=MaxWaitPolicy(4, 0.0002)
                                     ) as frontend:
                served = await asyncio.wait_for(asyncio.gather(
                    *(client(frontend) for _ in range(clients))), 60)
            return sum(served), frontend.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            served, stats = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert stats["depth"] == 0
        assert stats["admitted"] == stats["real_requests"] == served
        assert stats["admitted"] + stats["shed"] == clients * per_client

    def test_no_update_lost_under_a_short_switch_interval(self):
        """Admission runs on the loop thread and release on the round
        thread, on the same counters; with the interpreter switching
        threads every microsecond, every request is still counted once."""
        self._short_switch_run(_served_ok)

    def test_nor_when_rounds_answer_before_writing_back(self):
        """The same, with each round answering through ``ROUND_ANSWER``
        and then doing write-back work while the loop resolves it."""
        def execute(requests):
            responses = _served_ok(requests)
            ROUND_ANSWER.get()(responses)
            sum(range(2000))  # the write half, behind the reply
            return responses

        self._short_switch_run(execute)


def _served_ok(requests):
    return [ClientResponse(request_id=req.request_id, key=req.key,
                           value=b"ok") for req in requests]
