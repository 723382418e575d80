"""The coalescing core: many awaiting clients, one round dispatcher.

:class:`AsyncFrontend` serves the paper's "multiple clients accessing
data concurrently" shape (§3.1): clients ``await get()``/``put()`` from
any task and are resolved when the round carrying their request
completes.  What makes it a *server* core:

* **admission control** — a bounded pending queue
  (:class:`~repro.serve.admission.AdmissionController`); offered load
  past the cap is shed with a retryable
  :class:`~repro.errors.OverloadedError` before it touches the proxy;
* **pluggable release scheduling** — a
  :class:`~repro.serve.policy.ReleasePolicy` decides when pending
  requests become a round, and the frontend records every committed
  release instant in :attr:`release_times` so the PR-7 timing
  observatory can score the live schedule;
* **off-loop execution** — rounds run one at a time on the frontend's
  own ``serve-round`` thread, so the event loop keeps accepting
  connections and arrivals while Algorithm 1 grinds (the proxy stays
  single-threaded per round, exactly like the paper's per-batch critical
  section; a second round thread measured 0.45–0.69x, DESIGN.md §10–11).

Determinism: the pending queue is FIFO and asyncio is single-threaded,
so the requests of each round are exactly the admission order — an
N-task fan-in that enqueues in a known order produces byte-identical
responses *and* a byte-identical adversary trace to executing the same
round partition serially (``tests/test_serve_concurrent.py`` pins both
digests).

Round failures follow the library taxonomy: a retryable error
(`is_retryable`) is retried up to ``max_round_retries`` times — invoking
``on_retry`` first — because deterministic replay re-issues the identical
access pattern and leaks nothing new; a fatal error is delivered to every
waiter of the round.  ``on_retry`` is a hook, not a recovery, and nothing
that ships wires it to one: ``reconnect`` exists only on the test double
:class:`~repro.testing.faults.FaultyStorage`.  A real
:class:`~repro.net.client.RemoteStore` has none — once a request, or a
round's deferred acknowledgement, fails on the wire it raises
``ConnectionDroppedError`` from every later call, retries included, until
the deployment builds a new store and restores the proxy onto it; until
then a retry helps only against faults that leave the store usable.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.datastore import WaffleDatastore, pad_value
from repro.errors import (
    ClosedError,
    ConfigurationError,
    KeyNotFoundError,
    is_retryable,
)
from repro.obs import OBS
from repro.serve.admission import AdmissionController
from repro.serve.policy import OnFillPolicy, ReleasePolicy
from repro.workloads.trace import Operation

__all__ = ["AsyncFrontend"]

#: A round executor: list of prepared requests -> list of responses.
RoundExecutor = Callable[[list[ClientRequest]], list[ClientResponse]]


class _Waiter:
    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: ClientRequest, future: "asyncio.Future[bytes]",
                 enqueued_at: float) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


class AsyncFrontend:
    """Round-coalescing asyncio facade over a Waffle datastore.

    Parameters
    ----------
    datastore:
        The deployment to serve (supplies ``execute`` and ``r`` unless
        overridden).
    policy:
        Release scheduler; defaults to :class:`OnFillPolicy` at the
        datastore's R.
    queue_cap:
        Admission cap on pending (undispatched) requests.
    execute:
        Round executor override — the chaos harness wraps the datastore
        call with fault retry/bookkeeping here.
    r:
        Batch size override when ``execute`` is supplied without a
        datastore.
    clock:
        Timestamp source for arrival times and release instants
        (``time.perf_counter`` by default; tests inject a SimClock read).
    max_round_retries / on_retry:
        Retry budget for retryable round failures, and the hook invoked
        before each retry (module docstring: what it can and cannot
        recover today).

    Rounds run on a single-thread pool this frontend owns and shuts
    down: they are strictly sequential, so one thread is exactly enough,
    and round execution can never be starved by unrelated work on the
    loop's default pool.
    """

    def __init__(self, datastore: WaffleDatastore | None = None, *,
                 policy: ReleasePolicy | None = None,
                 queue_cap: int = 1024,
                 execute: RoundExecutor | None = None,
                 r: int | None = None,
                 clock: Callable[[], float] = time.perf_counter,
                 max_round_retries: int = 0,
                 on_retry: Callable[[], None] | None = None) -> None:
        if datastore is not None:
            r = datastore.config.r if r is None else r
            execute = datastore.execute_batch if execute is None else execute
        if execute is None or r is None:
            raise ConfigurationError(
                "AsyncFrontend needs a datastore, or execute= plus r=")
        self.datastore = datastore
        self.r = r
        self._execute: RoundExecutor = execute
        self.policy = policy if policy is not None else OnFillPolicy(self.r)
        self.admission = AdmissionController(queue_cap)
        self._clock = clock
        self.max_round_retries = max_round_retries
        self.on_retry = on_retry
        self._round_labels = {"policy": self.policy.name}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-round")
        self._pending: deque[_Waiter] = deque()
        self._wakeup = asyncio.Event()
        self._closed = False
        self._dispatcher: asyncio.Task | None = None
        #: Release instants the schedule committed to, in round order —
        #: the series the timing adversary consumes.
        self.release_times: list[float] = []
        self.rounds_dispatched = 0
        #: Requests the dispatched rounds carried, and how many carried
        #: none (all-fake rounds).
        self.real_requests = 0
        self.empty_rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncFrontend":
        if self._dispatcher is None:
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def close(self) -> None:
        """Drain pending requests into final rounds, then stop."""
        self._closed = True
        self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncFrontend":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # client interface (called from any task)
    # ------------------------------------------------------------------
    async def get(self, key: str) -> bytes:
        return await self.submit(ClientRequest(op=Operation.READ, key=key))

    async def put(self, key: str, value: bytes) -> bytes:
        return await self.submit(
            ClientRequest(op=Operation.WRITE, key=key, value=value))

    async def submit(self, request: ClientRequest) -> bytes:
        """Queue ``request`` for a round and await its value.

        A round fails as a whole, so a request the datastore's proxy
        would refuse is refused here, alone and before admission
        (counted neither admitted nor shed): ``KeyNotFoundError`` for an
        unknown key, ``pad_value``'s ``ConfigurationError`` for an
        oversize value.  Residual: a key can still vanish between here
        and its round through ``datastore.delete()``, which no wire
        command exposes; that round fails for all its waiters.
        """
        if self._closed:
            raise ClosedError("serving frontend is closed")
        datastore = self.datastore
        if datastore is not None:
            if not datastore.proxy.contains_key(request.key):
                raise KeyNotFoundError(request.key)
            if request.value is not None:  # raises if it cannot be padded
                pad_value(request.value, datastore.config.value_size)
        # Admission before enqueue: the pending queue can never exceed
        # its cap, and a shed request leaves no trace anywhere below.
        self.admission.admit()  # raises OverloadedError at the cap
        if OBS.enabled:
            OBS.registry.counter("serve.requests.total",
                                 op=request.op.value).inc()
            OBS.registry.gauge("serve.pending.depth").set(
                self.admission.depth)
        waiter = _Waiter(request, asyncio.get_running_loop().create_future(),
                         self._clock())
        self._pending.append(waiter)
        self._wakeup.set()
        return await waiter.future

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        policy = self.policy
        while True:
            now = self._clock()
            pending = len(self._pending)
            oldest = self._pending[0].enqueued_at if pending else None
            if self._closed and pending == 0:
                return
            fire = policy.due(pending, oldest, now) \
                and (pending > 0 or (policy.fires_empty and not self._closed))
            if self._closed and pending > 0:
                fire = True  # drain stragglers regardless of policy
            if fire:
                await self._run_round(now)
                continue
            deadline = policy.next_deadline(pending, oldest, now)
            # No await between the queue snapshot above and this clear, so
            # a set event always reflects an arrival we will re-examine.
            self._wakeup.clear()
            timeout = None if deadline is None else max(0.0, deadline - now)
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                continue

    async def _run_round(self, now: float) -> None:
        take = [self._pending.popleft()
                for _ in range(min(self.r, len(self._pending)))]
        self.admission.release(len(take))
        release_time = self.policy.release_time(now)
        self.policy.mark_release(release_time)
        self.release_times.append(release_time)
        self.rounds_dispatched += 1
        self.real_requests += len(take)
        self.empty_rounds += not take
        requests = [waiter.request for waiter in take]
        observing = OBS.enabled
        if observing:
            start = time.perf_counter()
            for waiter in take:
                OBS.registry.histogram("serve.wait.seconds",
                                       **self._round_labels).observe(
                    max(0.0, now - waiter.enqueued_at))
            OBS.registry.gauge("serve.pending.depth").set(
                self.admission.depth)
        loop = asyncio.get_running_loop()
        try:
            responses = await loop.run_in_executor(
                self._executor, self._execute_with_retry, requests)
        except BaseException as error:  # noqa: BLE001 - deliver to waiters
            for waiter in take:
                if not waiter.future.done():
                    waiter.future.set_exception(error)
            if observing:
                OBS.observe_span("serve.round", time.perf_counter() - start,
                                 labels=self._round_labels,
                                 requests=len(take), error=True)
            return
        by_id = {resp.request_id: resp.value for resp in responses}
        for waiter in take:
            if not waiter.future.done():  # a dead connection may have gone
                waiter.future.set_result(by_id[waiter.request.request_id])
        if observing:
            OBS.registry.counter("serve.rounds.total",
                                 **self._round_labels).inc()
            OBS.observe_span("serve.round", time.perf_counter() - start,
                             labels=self._round_labels,
                             requests=len(take), error=False)

    def _execute_with_retry(self,
                            requests: list[ClientRequest]
                            ) -> list[ClientResponse]:
        """Run one round in the executor thread, retrying transients.

        A retried round replays the identical storage access pattern
        (deterministic proxy), so retrying leaks nothing beyond the
        failure itself — the same argument the chaos oracle's
        replay-prefix check pins for the HA failover path.
        """
        attempts = self.max_round_retries + 1
        for attempt in range(attempts):
            try:
                return self._execute(requests)
            except Exception as error:  # noqa: BLE001 - classified below
                if attempt + 1 >= attempts or not is_retryable(error):
                    raise
                if self.on_retry is not None:
                    self.on_retry()
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One flat stats row (STATS replies, bench reports, CLI)."""
        row = self.admission.snapshot()
        row.update(
            policy=self.policy.name,
            rounds=self.rounds_dispatched,
            real_requests=self.real_requests,
            empty_rounds=self.empty_rounds,
        )
        return row
