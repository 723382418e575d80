"""The coalescing core: many awaiting clients, one round thread.

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
* **one round thread** — the frontend's own ``serve-round`` thread is
  the dispatcher: it sleeps on a condition until the policy's deadline
  or a fill, pops the round, runs it with the lock released and hands
  the responses to the loop with one ``call_soon_threadsafe`` as soon as
  the round has them, before it seals and commits its write-back.  The
  loop only admits and resolves, and a deadline fires on time, not on
  the loop's next millisecond tick (one round at a time, like the
  paper's per-batch critical section; a second round thread measured
  0.45–0.69x, DESIGN.md §10–11).

Determinism: the queue, admission, policy and round counters change only
under that one lock and the thread pops the queue front, so each round
is a contiguous run of the admission order — an N-task fan-in that
enqueues in a known order produces byte-identical responses *and* a
byte-identical adversary trace to executing the same round partition
serially (``tests/test_serve_concurrent.py`` pins both digests).
Requests submitted before :meth:`start` queue, so a stream admitted
before it is partitioned independently of host speed.

Round failures follow the library taxonomy: a retryable error
(`is_retryable`) is retried up to ``max_round_retries`` times — invoking
``on_retry`` first — because deterministic replay re-issues the identical
access pattern and leaks nothing new; a fatal error is delivered to every
waiter of the round, and a waiter the round's responses leave out fails
alone with ``ProtocolError``.  A failure *after* the round answered — in
its evict, seal or commit — is neither delivered nor retried: the
waiters keep their values, and a replay would be an extra round.  The
store no longer holds what the proxy believes (DESIGN.md §6, "What a
late failure is"), so the error sticks: it fails every queued request
and every later submit, no round runs again, and :meth:`close` still
returns.  ``on_retry`` is a hook, not a recovery, and nothing
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
import threading
import time
from collections import deque
from typing import Callable

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.datastore import ROUND_ANSWER, WaffleDatastore, refuse_oversize
from repro.errors import (
    ClosedError,
    ConfigurationError,
    KeyNotFoundError,
    ProtocolError,
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

    Rounds are strictly sequential, so the one ``serve-round`` thread
    :meth:`start` launches is exactly enough; :meth:`close` joins it.
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
        #: Guards all shared state; the round thread waits on it.
        self._cond = threading.Condition()
        self._pending: deque[_Waiter] = deque()
        self._closed = False
        #: A failure after a round answered: the store no longer holds
        #: what the proxy believes, so nothing is served again.
        self._failed: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._stopped: asyncio.Future[None] | None = None
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
        loop = asyncio.get_running_loop()
        with self._cond:
            if self._thread is None and not self._closed:
                self._stopped = loop.create_future()
                self._thread = threading.Thread(
                    target=self._serve_rounds, args=(loop, self._stopped),
                    name="serve-round", daemon=True)
                self._thread.start()
        return self

    async def close(self) -> None:
        """Drain pending requests into final rounds, then stop."""
        await self.start()  # a frontend never started still drains
        with self._cond:
            self._closed = True
            self._cond.notify()
        assert self._thread is not None and self._stopped is not None
        await asyncio.shield(self._stopped)
        self._thread.join()

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
        unknown key, ``refuse_oversize``'s ``ConfigurationError`` for an
        oversize value.  Residual: a key can still vanish between here
        and its round through ``datastore.delete()``, which no wire
        command exposes; that round fails for all its waiters.
        """
        datastore = self.datastore
        if datastore is not None:
            if not datastore.proxy.contains_key(request.key):
                raise KeyNotFoundError(request.key)
            if request.value is not None:
                refuse_oversize(request.value, datastore.config.value_size)
        with self._cond:
            # Under the lock, a submit racing close() is refused here or
            # queued before the round thread's last look.
            if self._closed:
                raise ClosedError("serving frontend is closed")
            if self._failed is not None:
                raise self._failed.with_traceback(None)
            # Admission before enqueue: the pending queue can never exceed
            # its cap, and a shed request leaves no trace anywhere below.
            self.admission.admit()  # raises OverloadedError at the cap
            waiter = _Waiter(request, asyncio.get_running_loop()
                             .create_future(), self._clock())
            self._pending.append(waiter)
            pending = len(self._pending)
            # Wake the thread only if its answer changes: a deadline, a fill.
            if pending == 1 or self.policy.due(
                    pending, self._pending[0].enqueued_at, waiter.enqueued_at):
                self._cond.notify()
        if OBS.enabled:
            OBS.registry.counter("serve.requests.total",
                                 op=request.op.value).inc()
            OBS.registry.gauge("serve.pending.depth").set(pending)
        return await waiter.future

    # ------------------------------------------------------------------
    # the round thread
    # ------------------------------------------------------------------
    def _serve_rounds(self, loop: asyncio.AbstractEventLoop,
                      stopped: "asyncio.Future[None]") -> None:
        """Release each round when the policy says and run it with the lock
        released; once closed, drain what is pending regardless of policy
        and exit.  After a late failure no round runs again."""
        policy = self.policy
        while True:
            with self._cond:
                now = self._clock()
                pending = len(self._pending)
                oldest = self._pending[0].enqueued_at if pending else None
                if self._closed and not pending:
                    break
                if self._failed is not None:  # submit refuses; wait for close
                    self._cond.wait()
                    continue
                if not self._closed and not (
                        policy.due(pending, oldest, now)
                        and (pending or policy.fires_empty)):
                    deadline = policy.next_deadline(pending, oldest, now)
                    self._cond.wait(
                        None if deadline is None else deadline - now)
                    continue
                take = [self._pending.popleft()
                        for _ in range(min(self.r, pending))]
                self.admission.release(len(take))
                release_time = policy.release_time(now)
                policy.mark_release(release_time)
                self.release_times.append(release_time)
                self.rounds_dispatched += 1
                self.real_requests += len(take)
                self.empty_rounds += not take
            self._run_round(loop, take, now)
        loop.call_soon_threadsafe(stopped.set_result, None)

    def _run_round(self, loop: asyncio.AbstractEventLoop,
                   take: list[_Waiter], now: float) -> None:
        """Run one round and hand its outcome to the loop.

        Through :data:`~repro.core.datastore.ROUND_ANSWER` the round
        answers its waiters as soon as it has their responses: one
        ``call_soon_threadsafe``, one GIL yield so the loop resolves them
        at once, a wait for it to have done so (rarely taken; it makes the
        order certain), and only then the write-back.  An executor that
        never answers is delivered from when it returns.  A failure after the
        answer is not retried (a replay would be an extra round): the
        waiters keep their values, and the error fails what is queued and
        every later submit.
        """
        start = time.perf_counter() if OBS.enabled else None
        answered = False
        resolved = threading.Event()

        def answer(responses: list[ClientResponse]) -> None:
            nonlocal answered
            answered = True
            loop.call_soon_threadsafe(self._deliver, take, now, start,
                                      responses, None, resolved.set)
            time.sleep(0)  # yield the GIL once: the loop resolves them now
            resolved.wait()  # or, if it could not, before the write-back

        token = ROUND_ANSWER.set(answer)
        try:
            responses, error = self._execute_with_retry(
                [waiter.request for waiter in take], lambda: answered), None
        except BaseException as failure:  # noqa: BLE001 - waiters raise it
            responses, error = [], failure
        finally:
            ROUND_ANSWER.reset(token)
        if not answered:
            loop.call_soon_threadsafe(self._deliver, take, now, start,
                                      responses, error)
        elif error is not None:
            with self._cond:
                self._failed = error
                stranded = list(self._pending)
                self._pending.clear()
                self.admission.release(len(stranded))
            loop.call_soon_threadsafe(self._deliver, stranded, now, None, [],
                                      error)

    def _deliver(self, take: list[_Waiter], now: float, start: float | None,
                 responses: list[ClientResponse],
                 error: BaseException | None,
                 resolved: Callable[[], None] | None = None) -> None:
        """Resolve one round's waiters with its responses or its error (a
        waiter the responses leave out fails alone, with ProtocolError),
        then tell the round thread through ``resolved``."""
        by_id = {resp.request_id: resp.value for resp in responses}
        for waiter in take:
            if waiter.future.done():  # a dead connection may have gone
                continue
            value = by_id.get(waiter.request.request_id)
            if error is not None:
                waiter.future.set_exception(error)
            elif value is None:
                waiter.future.set_exception(ProtocolError(
                    f"round returned no response for request "
                    f"{waiter.request.request_id}"))
            else:
                waiter.future.set_result(value)
        if resolved is not None:
            resolved()
        if start is None:
            return
        for waiter in take:
            OBS.registry.histogram("serve.wait.seconds",
                                   **self._round_labels).observe(
                max(0.0, now - waiter.enqueued_at))
        OBS.registry.gauge("serve.pending.depth").set(self.admission.depth)
        if error is None:
            OBS.registry.counter("serve.rounds.total",
                                 **self._round_labels).inc()
        OBS.observe_span("serve.round", time.perf_counter() - start,
                         labels=self._round_labels,
                         requests=len(take), error=error is not None)

    def _execute_with_retry(self, requests: list[ClientRequest],
                            answered: Callable[[], bool]
                            ) -> list[ClientResponse]:
        """Run one round on the round thread, retrying transients that
        struck before the round ``answered``.

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
                if (attempt + 1 >= attempts or answered()
                        or not is_retryable(error)):
                    raise
                if self.on_retry is not None:
                    self.on_retry()
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One flat stats row (STATS replies, bench reports, CLI)."""
        with self._cond:
            return {**self.admission.snapshot(), "policy": self.policy.name,
                    "rounds": self.rounds_dispatched,
                    "real_requests": self.real_requests,
                    "empty_rounds": self.empty_rounds}
