"""Load generators: one closed batch loop, one open loop, one socket loop.

Each driver owns the request streams and the reply checker of one
deployment and exposes ``measure(seconds, tracer=None, rates=None)``,
which drives load for ``seconds`` and returns a :class:`Window`.  The
generator is always the calling thread; the only other thread is the
program's own round executor.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from functools import partial

from repro.core.batch import ClientRequest
from repro.errors import OverloadedError, ReproError
from repro.serve.client import AsyncServeClient
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import MaxWaitPolicy
from repro.serve.server import ServeServer
from repro.workloads.trace import Operation

from tracing import Tracer
from workloads import (RequestStream, Verifier, Workload, key_name,
                       poisson_arrivals)

__all__ = ["Step", "Window", "make_driver"]

_clock = time.perf_counter
_READ, _WRITE = Operation.READ, Operation.WRITE

#: Requests precomputed per stream; a stream wraps around if outrun.
_STREAM_LEN = 1 << 20


@dataclass
class Step:
    """What one stretch of load at one offered rate saw.

    ``rate`` is 0 for a closed loop.  Latencies are seconds, of verified
    replies only; for the batch loop they are round latencies.
    """

    rate: int
    #: ``time.perf_counter()`` when the step began.
    start: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    wrong: int = 0
    latencies: list[float] = field(default_factory=list)
    #: When each of ``latencies`` completed, seconds from ``start``.
    finished: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    #: Indices into the tracer's rounds that ran during this step.
    first_round: int = 0
    last_round: int = 0
    proxy_rounds: int = 0

    @property
    def goodput(self) -> float:
        return self.completed / self.seconds

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.wrong


@dataclass
class Window:
    steps: list[Step]
    build_s: float = 0.0
    frontend_stats: dict = field(default_factory=dict)
    ping_rtts: list[float] = field(default_factory=list)


class _Driver:
    def __init__(self, workload: Workload, seed: int, datastore,
                 verifier: Verifier) -> None:
        self.workload = workload
        self.seed = seed
        self.datastore = datastore
        self.verifier = verifier
        self.names = [key_name(i) for i in range(workload.n)]
        self._rounds_before = 0

    def _execute(self, tracer: Tracer | None):
        execute = self.datastore.execute_batch
        return tracer.wrap_round(execute) if tracer is not None else execute

    def _frontend(self, tracer: Tracer | None) -> AsyncFrontend:
        workload = self.workload
        frontend = AsyncFrontend(
            self.datastore,
            policy=MaxWaitPolicy(workload.r, workload.max_wait_s),
            queue_cap=workload.queue_cap,
            execute=self._execute(tracer))
        if tracer is not None:
            tracer.wrap_submit(frontend)
        return frontend

    def _open_step(self, step: Step, tracer: Tracer | None) -> None:
        step.first_round = len(tracer.rounds) if tracer else 0
        self._rounds_before = self.datastore.proxy.totals.rounds

    def _close_step(self, step: Step, tracer: Tracer | None) -> None:
        step.last_round = len(tracer.rounds) if tracer else 0
        step.proxy_rounds = (self.datastore.proxy.totals.rounds
                             - self._rounds_before)
        step.wrong, self.verifier.wrong = self.verifier.wrong, 0


class BatchDriver(_Driver):
    """Closed loop, one caller: R requests per ``execute_batch`` call."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stream = RequestStream(self.workload, self.seed, _STREAM_LEN)

    def measure(self, seconds: float, tracer: Tracer | None = None,
                rates=None) -> Window:
        execute = self._execute(tracer)
        verifier, names, r = self.verifier, self.names, self.workload.r
        acked, take = verifier.acked, self.stream.take
        step = Step(rate=0)
        self._open_step(step, tracer)
        build_s = 0.0
        step.start = start = now = _clock()
        end = start + seconds
        while now < end:
            build_start = _clock()
            keys, puts = take(r)
            requests, expect = [], []
            for index, is_put in zip(keys, puts):
                if is_put:
                    version, value = verifier.next_put(index)
                    requests.append(ClientRequest(_WRITE, names[index], value))
                    expect.append(version)
                else:
                    requests.append(ClientRequest(_READ, names[index]))
                    expect.append(acked[index])
            sent = _clock()
            responses = execute(requests)
            done = _clock()
            ok = len(responses) == r
            for index, is_put, bound, request, response in zip(
                    keys, puts, expect, requests, responses):
                if response.request_id != request.request_id:
                    ok = False
                    verifier.wrong += 1
                elif is_put:
                    verifier.ack_put(index, bound)
                elif not verifier.check_get(index, bound, response.value):
                    ok = False
            if ok:
                step.latencies.append(done - sent)
                step.finished.append(done - start)
            build_s += sent - build_start
            now = _clock()
        step.seconds = now - start
        self._close_step(step, tracer)
        step.attempted = step.proxy_rounds * r
        step.completed = step.attempted - step.wrong
        return Window([step], build_s=build_s)


class ServeOpenDriver(_Driver):
    """Open loop: Poisson arrivals awaited on ``AsyncFrontend.get/put``.

    One event loop thread issues every request at its due time and
    times it from that due time, so a stalled generator or a full queue
    shows as latency, not as less load.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stream = RequestStream(self.workload, self.seed, _STREAM_LEN)
        self._steps_run = 0

    def measure(self, seconds: float, tracer: Tracer | None = None,
                rates=None) -> Window:
        rates = rates or self.workload.rates
        return asyncio.run(
            self._measure(seconds / len(rates), rates, tracer))

    async def _measure(self, step_seconds: float, rates, tracer) -> Window:
        frontend = self._frontend(tracer)
        window = Window([])
        async with frontend:
            for rate in rates:
                window.steps.append(
                    await self._step(frontend, rate, step_seconds, tracer))
        window.frontend_stats = frontend.stats()
        return window

    async def _step(self, frontend, rate, seconds, tracer) -> Step:
        verifier, names = self.verifier, self.names
        acked = verifier.acked
        self._steps_run += 1
        due = poisson_arrivals(self.seed, self._steps_run, rate, seconds)
        keys, puts = self.stream.take(len(due))
        step = Step(rate=rate, seconds=seconds, attempted=len(due))
        self._open_step(step, tracer)
        # Only the requests in flight are kept: the rest would be tens of
        # megabytes of the generator's own in ``peak_rss_mb``.
        in_flight: set = set()
        step.start = start = _clock()
        end = start + seconds

        def on_done(index, is_put, bound, due_at, task):
            done = _clock()
            in_flight.discard(task)
            error = task.exception()
            if isinstance(error, OverloadedError):
                step.shed += 1
            elif error is not None:
                step.errors += 1
            elif is_put:
                verifier.ack_put(index, bound)
            elif not verifier.check_get(index, bound, task.result()):
                return
            if error is None:
                step.latencies.append(done - due_at)
                step.finished.append(done - start)
                # Goodput counts what finished inside the step; the drain
                # after it would flatter a saturated step.
                step.completed += done <= end

        position, count = 0, len(due)
        while position < count:
            due_at = start + due[position]
            now = _clock()
            if now < due_at:
                await asyncio.sleep(due_at - now)
                continue
            index, is_put = keys[position], puts[position]
            if is_put:
                bound, value = verifier.next_put(index)
                call = frontend.put(names[index], value)
            else:
                bound = acked[index]
                call = frontend.get(names[index])
            task = asyncio.ensure_future(call)
            task.add_done_callback(
                partial(on_done, index, is_put, bound, due_at))
            in_flight.add(task)
            step.lateness.append(now - due_at)
            position += 1
        # Hold the step open to its full length, then drain the backlog so
        # the next step starts from an empty queue.
        await asyncio.sleep(max(0.0, end - _clock()))
        await asyncio.gather(*in_flight, return_exceptions=True)
        await asyncio.sleep(0)  # let the last done-callbacks run
        self._close_step(step, tracer)
        return step


class WireClosedDriver(_Driver):
    """Closed loop over sockets: one in-flight request per connection.

    Each connection owns the keys congruent to its number, so every key
    has one ordered history however the connections interleave.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.connections = min(os.cpu_count() or 1, 4)
        self.streams = [
            RequestStream(self.workload, self.seed, _STREAM_LEN // 4,
                          lane=lane, lanes=self.connections)
            for lane in range(self.connections)]

    def measure(self, seconds: float, tracer: Tracer | None = None,
                rates=None) -> Window:
        return asyncio.run(self._measure(seconds, tracer))

    async def _measure(self, seconds, tracer) -> Window:
        frontend = self._frontend(tracer)
        step = Step(rate=0)
        self._open_step(step, tracer)
        window = Window([step])
        async with ServeServer(frontend) as server:
            host, port = server.address
            clients = [await AsyncServeClient(host, port).connect()
                       for _ in range(self.connections)]
            try:
                step.start = start = _clock()
                await asyncio.gather(*[
                    self._client_loop(client, stream, step, start,
                                      start + seconds)
                    for client, stream in zip(clients, self.streams)])
                step.seconds = _clock() - start
                self._close_step(step, tracer)
                window.frontend_stats = frontend.stats()
                # The socket hop alone, for the traced pass: PINGs never
                # reach the frontend.
                ping_end = _clock() + (
                    min(2.0, seconds / 4) if tracer is not None else 0.0)
                while _clock() < ping_end:
                    sent = _clock()
                    await clients[0].ping()
                    window.ping_rtts.append(_clock() - sent)
            finally:
                for client in clients:
                    await client.close()
        return window

    async def _client_loop(self, client, stream, step, start, end) -> None:
        verifier, names = self.verifier, self.names
        acked = verifier.acked
        while True:
            keys, puts = stream.take(64)
            for index, is_put in zip(keys, puts):
                sent = _clock()
                if sent >= end:
                    return
                step.attempted += 1
                try:
                    if is_put:
                        version, value = verifier.next_put(index)
                        await client.put(names[index], value)
                        verifier.ack_put(index, version)
                    else:
                        floor = acked[index]
                        value = await client.get(names[index])
                        if not verifier.check_get(index, floor, value):
                            continue
                except OverloadedError:
                    step.shed += 1
                    continue
                except ReproError:
                    step.errors += 1
                    continue
                done = _clock()
                step.completed += 1
                step.latencies.append(done - sent)
                step.finished.append(done - start)


def make_driver(workload: Workload, seed: int, datastore,
                verifier: Verifier):
    kinds = {"batch": BatchDriver, "serve_open": ServeOpenDriver,
             "wire_closed": WireClosedDriver}
    return kinds[workload.kind](workload, seed, datastore, verifier)
