"""Unit coverage for the serving frontend: policies, admission, server.

The release policies are pure decision functions over timestamps, so
they are tested on a :class:`~repro.sim.clock.SimClock` with no asyncio
involved; the frontend and TCP layers run under ``asyncio.run`` against
the real (tiny) datastore.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.ha import capture_proxy, restore_proxy
from repro.errors import (
    BackendUnavailableError,
    ClosedError,
    ConfigurationError,
    ConnectionDroppedError,
    KeyNotFoundError,
    OverloadedError,
    ProtocolError,
    StorageError,
    is_retryable,
)
from repro.serve import (
    AsyncFrontend,
    AsyncServeClient,
    FixedIntervalPolicy,
    MaxWaitPolicy,
    OnFillPolicy,
    ServeServer,
    make_policy,
)
from repro.serve import frontend as frontend_module
from repro.sim.clock import SimClock
from repro.storage import PassthroughStore
from repro.testing.identity import trace_digest
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name


# ----------------------------------------------------------------------
# release policies (pure, SimClock-driven)
# ----------------------------------------------------------------------
class TestOnFillPolicy:
    def test_fires_exactly_at_r(self):
        policy = OnFillPolicy(4)
        assert not policy.due(3, 0.0, 1.0)
        assert policy.due(4, 0.0, 1.0)
        assert policy.due(9, 0.0, 1.0)

    def test_never_sets_a_deadline(self):
        policy = OnFillPolicy(4)
        assert policy.next_deadline(3, 0.0, 1.0) is None

    def test_commits_to_now(self):
        assert OnFillPolicy(4).release_time(2.5) == 2.5

    def test_rejects_bad_r(self):
        with pytest.raises(ConfigurationError):
            OnFillPolicy(0)

    def test_does_not_fire_empty(self):
        assert OnFillPolicy(4).fires_empty is False


class TestMaxWaitPolicy:
    def test_partial_batch_fires_after_deadline(self):
        clock = SimClock()
        policy = MaxWaitPolicy(4, max_wait_s=0.5)
        oldest = clock.now
        assert not policy.due(2, oldest, clock.now)
        clock.advance(0.49)
        assert not policy.due(2, oldest, clock.now)
        clock.advance(0.02)
        assert policy.due(2, oldest, clock.now)

    def test_full_batch_fires_immediately(self):
        policy = MaxWaitPolicy(4, max_wait_s=0.5)
        assert policy.due(4, 0.0, 0.0)

    def test_deadline_tracks_oldest_arrival(self):
        policy = MaxWaitPolicy(4, max_wait_s=0.5)
        assert policy.next_deadline(2, 1.25, 1.3) == pytest.approx(1.75)
        assert policy.next_deadline(0, None, 1.3) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MaxWaitPolicy(0, 0.1)
        with pytest.raises(ConfigurationError):
            MaxWaitPolicy(4, 0.0)


class TestFixedIntervalPolicy:
    def test_grid_from_first_query(self):
        clock = SimClock(start=10.0)
        policy = FixedIntervalPolicy(0.25)
        assert not policy.due(5, 10.0, clock.now)
        assert policy.next_deadline(5, 10.0, clock.now) == pytest.approx(10.25)
        clock.advance(0.25)
        assert policy.due(0, None, clock.now)

    def test_commits_to_grid_ticks_not_now(self):
        policy = FixedIntervalPolicy(0.25)
        policy.due(0, None, 10.0)  # arm the epoch
        release = policy.release_time(10.26)  # dispatched slightly late
        assert release == pytest.approx(10.25)
        policy.mark_release(release)
        assert policy.next_deadline(0, None, 10.26) == pytest.approx(10.5)

    def test_overrun_skips_ticks_without_makeup_bursts(self):
        policy = FixedIntervalPolicy(0.25)
        policy.due(0, None, 10.0)
        # A round overran two full ticks; commit to the latest past tick.
        release = policy.release_time(10.7)
        assert release == pytest.approx(10.5)
        policy.mark_release(release)
        assert policy.next_deadline(0, None, 10.7) == pytest.approx(10.75)

    def test_committed_gaps_are_exact_interval_multiples(self):
        clock = SimClock()
        policy = FixedIntervalPolicy(0.2)
        policy.due(0, None, clock.now)  # arm the epoch at t=0
        releases = []
        for jitter in (0.0, 0.013, 0.19, 0.002, 0.07):
            clock.advance(0.2 + jitter)
            assert policy.due(0, None, clock.now)
            release = policy.release_time(clock.now)
            policy.mark_release(release)
            releases.append(release)
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        for gap in gaps:
            assert gap / 0.2 == pytest.approx(round(gap / 0.2))

    def test_fires_empty(self):
        assert FixedIntervalPolicy(0.25).fires_empty is True

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            FixedIntervalPolicy(0.0)


class TestMakePolicy:
    def test_hyphenated_and_underscored_names(self):
        for kind in (OnFillPolicy, MaxWaitPolicy, FixedIntervalPolicy):
            for name in (kind.name, kind.name.replace("_", "-")):
                assert isinstance(make_policy(name, 4), kind)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("adaptive", 4)


# ----------------------------------------------------------------------
# admission control: the frontend's own pending queue, bounded at its cap
# ----------------------------------------------------------------------
def _echo(requests):
    return [ClientResponse(request_id=req.request_id, key=req.key,
                           value=req.key.encode()) for req in requests]


async def _offer(frontend, keys):
    """Submit one read per key and let each reach admission (queued or
    shed) before returning its task."""
    tasks = [asyncio.ensure_future(frontend.get(key)) for key in keys]
    await asyncio.sleep(0)
    return tasks


class TestAdmissionController:
    def test_sheds_past_the_cap(self):
        async def scenario():
            frontend = AsyncFrontend(execute=_echo, r=4, queue_cap=2)
            tasks = await _offer(frontend, ["a", "b", "c"])
            stats = frontend.stats()
            await frontend.close()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return stats, outcomes

        stats, outcomes = asyncio.run(scenario())
        assert (stats["admitted"], stats["shed"], stats["depth"]) == (2, 1, 2)
        assert outcomes[:2] == [b"a", b"b"]
        assert isinstance(outcomes[2], OverloadedError)

    def test_shed_errors_are_retryable(self):
        async def scenario():
            frontend = AsyncFrontend(execute=_echo, r=1, queue_cap=1)
            kept, shed = await _offer(frontend, ["a", "b"])
            await frontend.close()
            await kept
            return shed.exception()

        error = asyncio.run(scenario())
        assert isinstance(error, OverloadedError) and is_retryable(error)

    def test_release_reopens_admission(self):
        async def scenario():
            frontend = AsyncFrontend(execute=_echo, r=1, queue_cap=1)
            first, shed = await _offer(frontend, ["a", "b"])
            await frontend.start()
            await first  # its round took it off the queue
            (second,) = await _offer(frontend, ["b"])
            value = await second
            await frontend.close()
            return value, shed.exception(), frontend.stats()

        value, error, stats = asyncio.run(scenario())
        assert value == b"b" and isinstance(error, OverloadedError)
        assert (stats["admitted"], stats["shed"], stats["depth"]) == (2, 1, 0)

    def test_high_water_tracks_peak(self):
        async def scenario():
            frontend = AsyncFrontend(execute=_echo, r=3, queue_cap=8)
            tasks = await _offer(frontend, "abcde")
            await frontend.start()
            await asyncio.gather(*tasks[:3])  # one full round leaves 2
            tasks += await _offer(frontend, "f")  # 3 pending: a full round
            await asyncio.gather(*tasks)
            await frontend.close()
            return frontend.stats()

        stats = asyncio.run(scenario())
        assert stats["high_water"] == 5
        assert (stats["admitted"], stats["depth"], stats["rounds"]) == (6, 0, 2)

    def test_rejects_bad_cap(self):
        with pytest.raises(ConfigurationError):
            AsyncFrontend(execute=_echo, r=1, queue_cap=0)


# ----------------------------------------------------------------------
# the coalescing frontend
# ----------------------------------------------------------------------
class TestAsyncFrontend:
    def test_requires_datastore_or_executor(self):
        with pytest.raises(ConfigurationError):
            AsyncFrontend()
        with pytest.raises(ConfigurationError):
            AsyncFrontend(execute=lambda reqs: [])

    def test_get_put_round_trip(self, small_datastore):
        async def scenario():
            # max-wait: sequential awaited requests release as partial
            # rounds instead of waiting forever for a full batch.
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.005))
            async with frontend:
                before = await frontend.get(key_name(3))
                await frontend.put(key_name(3), b"updated")
                after = await frontend.get(key_name(3))
                return before, after

        before, after = asyncio.run(scenario())
        assert before == b"value-3"
        assert after == b"updated"

    def test_close_drains_partial_batches(self, small_datastore):
        # r=8; submit 3 requests; pure on-fill would hold them forever,
        # close() must drain them into a final partial round.
        async def scenario():
            frontend = AsyncFrontend(small_datastore)
            await frontend.start()
            tasks = [asyncio.ensure_future(frontend.get(key_name(i)))
                     for i in range(3)]
            await asyncio.sleep(0)
            await frontend.close()
            return await asyncio.gather(*tasks), frontend

        values, frontend = asyncio.run(scenario())
        assert values == [b"value-0", b"value-1", b"value-2"]
        stats = frontend.stats()
        assert (stats["rounds"], stats["real_requests"],
                stats["empty_rounds"]) == (1, 3, 0)

    def test_submit_after_close_raises(self, small_datastore):
        async def scenario():
            frontend = AsyncFrontend(small_datastore)
            await frontend.start()
            await frontend.close()
            with pytest.raises(ClosedError):
                await frontend.get(key_name(0))

        asyncio.run(scenario())

    def test_stats_shape(self, small_datastore):
        async def scenario():
            async with AsyncFrontend(small_datastore) as frontend:
                await asyncio.gather(*(frontend.get(key_name(i))
                                       for i in range(8)))
            return frontend.stats()

        stats = asyncio.run(scenario())
        assert stats["admitted"] == 8
        assert stats["shed"] == 0
        assert stats["rounds"] == 1
        assert stats["real_requests"] == 8
        assert stats["policy"] == "on_fill"

    def test_stats_count_all_fake_rounds(self, small_datastore):
        async def scenario():
            async with AsyncFrontend(
                    small_datastore,
                    policy=FixedIntervalPolicy(0.005)) as frontend:
                while frontend.rounds_dispatched < 2:  # idle grid ticks
                    await asyncio.sleep(0.005)
                await frontend.get(key_name(1))
            return frontend.stats()

        stats = asyncio.run(scenario())
        assert stats["real_requests"] == 1
        assert stats["empty_rounds"] == stats["rounds"] - 1 >= 2

    def test_no_thread_outlives_close(self, small_datastore):
        """The one ``serve-round`` thread is joined by close(), and close()
        starts no other thread (the loop's default executor included)."""
        async def scenario():
            before = set(threading.enumerate())
            frontend = AsyncFrontend(small_datastore)
            await frontend.start()
            started = {t.name for t in set(threading.enumerate()) - before}
            await asyncio.gather(*(frontend.get(key_name(i))
                                   for i in range(8)))
            await frontend.close()
            return started, set(threading.enumerate()) - before

        started, left = asyncio.run(scenario())
        assert started == {"serve-round"}
        assert left == set()

    def test_submit_racing_close_resolves_or_is_refused(self,
                                                        small_datastore):
        """Submits interleaved with close(), at every offset around it:
        each one is served or refused with ClosedError, none hangs."""
        async def submit_after(frontend, yields, key):
            for _ in range(yields):
                await asyncio.sleep(0)
            return await frontend.get(key)

        async def scenario(offset):
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.0005))
            await frontend.start()
            calls = [submit_after(frontend, yields, key_name(yields))
                     for yields in range(6)]
            closing = submit_after(frontend, offset, key_name(0))
            outcomes = await asyncio.wait_for(asyncio.gather(
                *calls, frontend.close(), closing,
                return_exceptions=True), timeout=10)
            return outcomes[:6] + outcomes[7:]

        for offset in range(6):
            for index, outcome in enumerate(asyncio.run(scenario(offset))):
                assert isinstance(outcome, (bytes, ClosedError)), outcome
                if isinstance(outcome, bytes):
                    assert outcome == b"value-%d" % (index % 6)

    def test_round_error_on_the_thread_reaches_every_waiter(self):
        """A round fails on the round thread: it runs once, each of its
        waiters gets the one error, and the next round is served."""
        calls = []

        def execute(requests):
            calls.append((threading.current_thread().name,
                          [request.key for request in requests]))
            if len(calls) == 1:
                raise ProtocolError("round is broken")
            return [ClientResponse(request_id=req.request_id, key=req.key,
                                   value=b"ok") for req in requests]

        async def scenario():
            async with AsyncFrontend(execute=execute, r=4) as frontend:
                failed = await asyncio.gather(
                    *(frontend.get(key_name(i)) for i in range(4)),
                    return_exceptions=True)
                served = await asyncio.gather(
                    *(frontend.get(key_name(i)) for i in range(4)))
            return failed, served

        failed, served = asyncio.run(scenario())
        keys = [key_name(i) for i in range(4)]
        assert calls == [("serve-round", keys), ("serve-round", keys)]
        assert all(isinstance(o, ProtocolError) for o in failed)
        assert len({id(o) for o in failed}) == 1  # the one round error
        assert served == [b"ok"] * 4

    def test_fatal_round_failure_reaches_every_waiter(self):
        """A fatal round error runs the round once and reaches each of its
        waiters."""
        calls = []

        def execute(requests):
            calls.append([request.key for request in requests])
            raise ProtocolError("round is broken")

        async def scenario():
            async with AsyncFrontend(execute=execute, r=2) as frontend:
                return await asyncio.gather(
                    frontend.get(key_name(0)), frontend.get(key_name(1)),
                    return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert calls == [[key_name(0), key_name(1)]]
        assert all(isinstance(o, ProtocolError) for o in outcomes)

    def test_retry_budget_exhaustion_propagates(self):
        """The frontend has no retry budget: a retryable round error runs
        the round once and reaches its waiter as raised."""
        calls = []

        def execute(requests):
            calls.append([request.key for request in requests])
            raise BackendUnavailableError("always down")

        async def scenario():
            async with AsyncFrontend(execute=execute, r=1) as frontend:
                return await asyncio.gather(frontend.get(key_name(0)),
                                            return_exceptions=True)

        (outcome,) = asyncio.run(scenario())
        assert calls == [[key_name(0)]]
        assert isinstance(outcome, BackendUnavailableError)

    def test_release_times_recorded_per_round(self, small_datastore):
        async def scenario():
            async with AsyncFrontend(small_datastore) as frontend:
                await asyncio.gather(*(frontend.get(key_name(i))
                                       for i in range(16)))
            return frontend

        frontend = asyncio.run(scenario())
        assert len(frontend.release_times) == 2
        assert frontend.release_times == sorted(frontend.release_times)


class _CommitOrder(PassthroughStore):
    """Records, at each commit, whether every waiter of the round being
    committed was already resolved."""

    def __init__(self, inner):
        super().__init__(inner)
        self.futures = {}  # request id -> the waiter's future
        self.in_flight = []  # request ids of the round being run
        self.resolved = []

    def execute(self, datastore):
        """A round executor that, like a tracer, passes only the requests."""
        def traced(requests):
            self.in_flight = [request.request_id for request in requests]
            return datastore.execute_batch(requests)
        return traced

    def commit_round(self, deletes, puts):
        self.resolved.append(
            all(self.futures[i].done() for i in self.in_flight))
        self._inner.commit_round(deletes, puts)


class _CommitFails(PassthroughStore):
    """Every commit raises a retryable error, handing nothing on."""

    def __init__(self, inner):
        super().__init__(inner)
        self.commits = 0
        self.error = BackendUnavailableError("commit lost")

    def commit_round(self, deletes, puts):
        self.commits += 1
        raise self.error


class _SecondReadFails(PassthroughStore):
    """The store's second read raises, handing nothing on."""

    def __init__(self, inner):
        super().__init__(inner)
        self.reads = 0
        self.error = BackendUnavailableError("read lost")

    def multi_get(self, keys):
        self.reads += 1
        if self.reads == 2:
            raise self.error
        return self._inner.multi_get(keys)


class TestAnswerBeforeWriteBack:
    """A round's waiters resolve once it has their responses; its seal
    and commit run behind the reply."""

    @pytest.fixture
    def order(self, small_datastore, monkeypatch):
        spy = _CommitOrder(small_datastore.proxy.store)
        small_datastore.proxy.store = spy

        class Recorded(frontend_module._Waiter):
            def __init__(self, request, future, enqueued_at):
                super().__init__(request, future, enqueued_at)
                spy.futures[request.request_id] = future

        monkeypatch.setattr(frontend_module, "_Waiter", Recorded)
        return spy

    def test_waiters_resolve_before_the_commit(self, small_datastore, order):
        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=OnFillPolicy(8),
                                     execute=order.execute(small_datastore))
            tasks = [asyncio.ensure_future(
                frontend.put(key_name(i), b"new-%d" % i) if i % 3 == 0
                else frontend.get(key_name(i))) for i in range(40)]
            await asyncio.sleep(0)  # all queued: five full rounds
            await frontend.start()
            await frontend.close()
            return await asyncio.wait_for(asyncio.gather(*tasks), 10)

        values = asyncio.run(scenario())
        assert values == [b"new-%d" % i if i % 3 == 0 else b"value-%d" % i
                          for i in range(40)]
        assert order.resolved == [True] * 5
        small_datastore.proxy.check_invariants()

    def test_over_the_wire(self, small_datastore, order):
        async def client(host, port, first):
            async with AsyncServeClient(host, port) as conn:
                for i in range(first, first + 6):
                    await conn.put(key_name(i), b"wire-%d" % i)
                    assert await conn.get(key_name(i)) == b"wire-%d" % i

        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.002),
                                     execute=order.execute(small_datastore))
            async with ServeServer(frontend) as server:
                await asyncio.wait_for(asyncio.gather(
                    *(client(*server.address, 10 * c) for c in range(4))), 20)

        asyncio.run(scenario())
        assert order.resolved and all(order.resolved)
        small_datastore.proxy.check_invariants()

    def test_a_round_without_responses_fails_each_waiter(self):
        async def scenario():
            async with AsyncFrontend(execute=lambda reqs: [], r=2,
                                     policy=MaxWaitPolicy(2, 0.001)) as fe:
                with pytest.raises(ProtocolError, match="no response"):
                    await asyncio.wait_for(fe.get("k"), 1.0)

        asyncio.run(scenario())

    def test_a_missing_response_fails_only_its_own_waiter(self):
        def execute(requests):
            first = requests[0]
            return [ClientResponse(request_id=first.request_id,
                                   key=first.key, value=b"ok")]

        async def scenario():
            async with AsyncFrontend(execute=execute, r=2) as frontend:
                return await asyncio.wait_for(asyncio.gather(
                    frontend.get("a"), frontend.get("b"),
                    return_exceptions=True), 1.0)

        served, missing = asyncio.run(scenario())
        assert served == b"ok"
        assert isinstance(missing, ProtocolError)

    def test_a_write_back_failure_keeps_answers_fails_the_proxy(
            self, small_datastore):
        """The commit of an answered round fails: its waiters keep their
        values and nothing runs it again.  The proxy holds the failure, so
        the round queued behind it and a later submit get its
        ``ProtocolError``, caused by the commit's error, and the server
        sees nothing of them."""
        store = _CommitFails(small_datastore.proxy.store)
        small_datastore.proxy.store = store
        recorder = small_datastore.recorder
        records = len(recorder.records)

        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.001))
            tasks = [asyncio.ensure_future(frontend.get(key_name(i)))
                     for i in range(10)]
            await asyncio.sleep(0)  # all queued: a full round, then two
            await frontend.start()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 5)
            later = await asyncio.wait_for(asyncio.gather(
                frontend.get(key_name(5)), return_exceptions=True), 5)
            await asyncio.wait_for(frontend.close(), 5)
            return outcomes + later, frontend.stats()

        outcomes, stats = asyncio.run(scenario())
        assert outcomes[:8] == [b"value-%d" % i for i in range(8)]
        for refused in outcomes[8:]:
            assert isinstance(refused, ProtocolError)
            assert refused.__cause__ is store.error
        assert small_datastore.proxy.failure is store.error
        assert store.commits == 1
        # Round 1's reads; its commit was lost, rounds 2 and 3 never began.
        assert len(recorder.records) - records == small_datastore.config.b
        assert recorder.round == 1
        assert (stats["rounds"], stats["depth"]) == (3, 0)

    def test_a_failed_round_stops_the_proxy_until_a_restore(
            self, small_datastore):
        """A served stream whose second round loses its read: that round's
        waiters get the error, every later waiter the proxy's
        ``ProtocolError`` caused by it, and the server sees nothing after
        it.  The last checkpoint before the failure restores a proxy that
        passes its self-check and serves."""
        recorder = small_datastore.recorder
        store = _SecondReadFails(recorder)
        small_datastore.proxy.store = store
        blobs, seen = [], []

        def execute(requests):
            """Like the HA group: a checkpoint after every round."""
            responses = small_datastore.execute_batch(requests)
            blobs.append(capture_proxy(small_datastore.proxy))
            seen.append(len(recorder.records))
            return responses

        async def scenario():
            frontend = AsyncFrontend(small_datastore, policy=OnFillPolicy(8),
                                     execute=execute)
            tasks = [asyncio.ensure_future(frontend.get(key_name(i)))
                     for i in range(32)]
            await asyncio.sleep(0)  # all queued: four full rounds
            await frontend.start()
            await asyncio.wait_for(frontend.close(), 5)
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert outcomes[:8] == [b"value-%d" % i for i in range(8)]
        assert all(outcome is store.error for outcome in outcomes[8:16])
        for refused in outcomes[16:]:
            assert isinstance(refused, ProtocolError)
            assert refused.__cause__ is store.error
        assert (len(blobs), store.reads) == (1, 2)
        assert len(recorder.records) == seen[-1]
        assert recorder.round == 2  # rounds 3 and 4 never began

        restored = restore_proxy(blobs[-1], recorder)
        restored.check_invariants()
        small_datastore.proxy = restored
        responses = small_datastore.execute_batch(
            [ClientRequest(op=Operation.READ, key=key_name(i))
             for i in range(8, 16)])
        assert [r.value for r in responses] == \
            [b"value-%d" % i for i in range(8, 16)]
        restored.check_invariants()


class TestSwitchIntervalCap:
    """While a round thread runs, the loop waits at most 1 ms for the GIL."""

    @staticmethod
    def _frontend():
        return AsyncFrontend(execute=lambda requests: [], r=2)

    @pytest.fixture
    def prior(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.004)
        yield 0.004
        sys.setswitchinterval(interval)

    def test_capped_while_a_frontend_runs(self, prior):
        async def scenario():
            frontend = await self._frontend().start()
            during = sys.getswitchinterval()
            await frontend.close()
            return during

        assert asyncio.run(scenario()) == pytest.approx(0.001)
        assert frontend_module._LOOP_GIL_WAIT_S == 0.001
        assert sys.getswitchinterval() == pytest.approx(prior)

    @pytest.mark.parametrize("first", [0, 1])
    def test_overlapping_frontends_restore_in_either_order(self, prior,
                                                           first):
        async def scenario():
            frontends = [await self._frontend().start() for _ in range(2)]
            await frontends[first].close()
            between = sys.getswitchinterval()
            await frontends[1 - first].close()
            return between

        assert asyncio.run(scenario()) == pytest.approx(0.001)
        assert sys.getswitchinterval() == pytest.approx(prior)

    def test_a_shorter_interval_is_kept(self, prior):
        sys.setswitchinterval(0.0002)
        short = sys.getswitchinterval()

        async def scenario():
            async with self._frontend():
                return sys.getswitchinterval()

        assert asyncio.run(scenario()) == short
        assert sys.getswitchinterval() == short


# ----------------------------------------------------------------------
# the TCP layer
# ----------------------------------------------------------------------
class TestServeServer:
    def test_round_trip_over_tcp(self, small_datastore):
        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.005))
            async with ServeServer(frontend) as server:
                host, port = server.address
                async with AsyncServeClient(host, port) as client:
                    assert await client.ping() == b"PONG"
                    value = await client.get(key_name(5))
                    await client.put(key_name(5), b"over-tcp")
                    updated = await client.get(key_name(5))
                    stats = await client.stats()
            return value, updated, stats, server

        value, updated, stats, server = asyncio.run(scenario())
        assert value == b"value-5"
        assert updated == b"over-tcp"
        assert stats["admitted"] == 3
        assert stats["shed"] == 0
        assert server.connections_total == 1

    def test_unknown_command_is_an_error_reply(self, small_datastore):
        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.005))
            async with ServeServer(frontend) as server:
                host, port = server.address
                async with AsyncServeClient(host, port) as client:
                    with pytest.raises(StorageError):
                        await client._call(["BOGUS"])
                    # The connection survives the error reply.
                    assert await client.ping() == b"PONG"

        asyncio.run(scenario())

    def test_overloaded_travels_the_wire_as_retryable(self, small_datastore):
        async def scenario():
            # queue_cap=1 with a slow policy: the second concurrent
            # request must be shed and surface client-side as the
            # retryable taxonomy type.
            frontend = AsyncFrontend(small_datastore,
                                     policy=OnFillPolicy(8), queue_cap=1)
            async with ServeServer(frontend) as server:
                host, port = server.address
                first = AsyncServeClient(host, port)
                second = AsyncServeClient(host, port)
                await first.connect()
                await second.connect()
                task = asyncio.ensure_future(first.get(key_name(0)))
                await asyncio.sleep(0.05)  # first request now pending
                with pytest.raises(OverloadedError) as excinfo:
                    await second.get(key_name(1))
                assert is_retryable(excinfo.value)
                await frontend.close()  # drain the pending request
                assert await task == b"value-0"
                await first.close()
                await second.close()

        asyncio.run(scenario())

    def test_cancelled_call_drops_the_connection(self, small_datastore):
        """A call cancelled after its request went out closes the stream:
        the next call raises instead of reading the stale reply."""
        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.05))
            async with ServeServer(frontend) as server:
                async with AsyncServeClient(*server.address) as client:
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(client.get(key_name(1)), 0.01)
                    for _ in range(2):  # sticky
                        with pytest.raises(ConnectionDroppedError):
                            await client.get(key_name(2))
                async with AsyncServeClient(*server.address) as fresh:
                    return await fresh.get(key_name(2))

        assert asyncio.run(scenario()) == b"value-2"

    def test_put_requests_count_ops_in_stats(self, small_datastore):
        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(8, 0.005))
            async with ServeServer(frontend) as server:
                host, port = server.address
                async with AsyncServeClient(host, port) as client:
                    for i in range(4):
                        await client.put(key_name(i), b"w")
                    stats = await client.stats()
            return stats

        stats = asyncio.run(scenario())
        assert stats["admitted"] == 4
        assert stats["rounds"] >= 1


# ----------------------------------------------------------------------
# a request the proxy must refuse is refused alone
# ----------------------------------------------------------------------
class TestRefusedAlone:
    """An unknown key or an oversize value fails its own caller at
    ``submit`` — not the clients batched with it — and leaves the storage
    trace of a run that was offered only the valid requests."""

    @staticmethod
    def _valid_only_digest(small_config, small_items) -> str:
        """Trace digest of ``small_datastore``'s twin after the one round
        both tests' valid requests make: get key 1, get key 2."""
        twin = WaffleDatastore(small_config, small_items,
                               keychain=KeyChain.from_seed(7), log_ids=True)

        async def scenario():
            async with AsyncFrontend(twin, policy=OnFillPolicy(2)) as frontend:
                await asyncio.gather(frontend.get(key_name(1)),
                                     frontend.get(key_name(2)))

        asyncio.run(scenario())
        return trace_digest(twin.recorder.records)

    def test_in_process(self, small_datastore, small_config, small_items):
        oversize = b"x" * (small_config.value_size - 3)

        async def scenario():
            # Max-wait only so that a regression drains instead of
            # hanging; the one round here fills and fires at once.
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(2, 0.005))
            async with frontend:
                outcomes = await asyncio.gather(
                    frontend.get(key_name(1)),
                    frontend.get("nope"),
                    frontend.put(key_name(3), oversize),
                    frontend.get(key_name(2)),
                    return_exceptions=True)
                return outcomes, frontend.stats()

        (first, unknown, too_big, second), stats = asyncio.run(scenario())
        assert (first, second) == (b"value-1", b"value-2")
        assert isinstance(unknown, KeyNotFoundError)
        assert unknown.key == "nope"
        assert isinstance(too_big, ConfigurationError)
        # Refused before admission: neither admitted nor shed.
        assert (stats["admitted"], stats["shed"], stats["rounds"],
                stats["real_requests"]) == (2, 0, 1, 2)
        assert trace_digest(small_datastore.recorder.records) == \
            self._valid_only_digest(small_config, small_items)

    def test_over_the_wire(self, small_datastore, small_config, small_items):
        oversize = b"x" * (small_config.value_size - 3)

        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(2, 0.5))
            async with ServeServer(frontend) as server:
                host, port = server.address
                victim, offender, other = (AsyncServeClient(host, port)
                                           for _ in range(3))
                for client in (victim, offender, other):
                    await client.connect()
                try:
                    pending = asyncio.ensure_future(victim.get(key_name(1)))
                    await asyncio.sleep(0.05)  # now waiting for a round
                    # Refused at once, while the victim is still queued.
                    with pytest.raises(KeyNotFoundError) as unknown:
                        await offender.get("nope")
                    with pytest.raises(StorageError,
                                       match="exceeds padded size"):
                        await offender.put(key_name(3), oversize)
                    assert not pending.done()
                    second = await other.get(key_name(2))  # fills the round
                    return await pending, second, unknown.value.key
                finally:
                    for client in (victim, offender, other):
                        await client.close()

        assert asyncio.run(scenario()) == (b"value-1", b"value-2", "nope")
        assert trace_digest(small_datastore.recorder.records) == \
            self._valid_only_digest(small_config, small_items)

    def test_a_pending_request_id(self, small_datastore):
        """A round answers by request id, so a request whose id is already
        queued could be answered with the other's value: it is refused at
        submit, the queued one keeps its own answer, and the id is free
        again once its round has taken it."""

        def request(op, key, value=None):
            return ClientRequest(op=op, key=key, value=value, request_id=5)

        async def scenario():
            frontend = AsyncFrontend(small_datastore,
                                     policy=MaxWaitPolicy(2, 0.005))
            # Not started: the first request stays queued.
            first = asyncio.ensure_future(frontend.submit(
                request(Operation.WRITE, key_name(1), b"NEW")))
            await asyncio.sleep(0)
            with pytest.raises(ProtocolError, match="already pending"):
                await frontend.submit(request(Operation.READ, key_name(2)))
            refused = frontend.stats()
            async with frontend:
                answers = (await first, await frontend.submit(
                    request(Operation.READ, key_name(2))))
            return answers, refused

        answers, refused = asyncio.run(scenario())
        assert answers == (b"NEW", b"value-2")
        assert (refused["admitted"], refused["shed"]) == (1, 0)


class TestOperationMapping:
    def test_frontend_builds_correct_request_kinds(self, small_datastore):
        captured: list[list[ClientRequest]] = []
        real_execute = small_datastore.execute_batch

        def spy(requests):
            captured.append(list(requests))
            return real_execute(requests)

        async def scenario():
            frontend = AsyncFrontend(execute=spy, r=2)
            async with frontend:
                await asyncio.gather(frontend.get(key_name(0)),
                                     frontend.put(key_name(1), b"x"))

        asyncio.run(scenario())
        (batch,) = captured
        assert batch[0].op is Operation.READ
        assert batch[1].op is Operation.WRITE
        assert batch[1].value == b"x"
