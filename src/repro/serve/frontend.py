"""The coalescing core: many awaiting clients, one round thread.

:class:`AsyncFrontend` serves the paper's "multiple clients accessing
data concurrently" shape (§3.1): clients ``await get()``/``put()`` from
any task and are resolved when the round carrying their request
completes.  What makes it a *server* core:

* **admission control** — the pending queue is bounded at
  ``queue_cap``: an open-loop client population does not slow down when
  the proxy falls behind, so offered load past the cap is shed with a
  retryable :class:`~repro.errors.OverloadedError` before it touches
  the proxy (a shed request leaves the adversary trace byte-identical,
  ``tests/test_serve_backpressure.py``);
* **pluggable release scheduling** — a
  :class:`~repro.serve.policy.ReleasePolicy` decides when pending
  requests become a round; while observability is on, the instant the
  schedule committed to rides on the round's ``serve.round`` span as its
  ``release`` attribute, the one record of it;
* **one round thread** — the frontend's own ``serve-round`` thread is
  the dispatcher: it sleeps on a condition until the policy's deadline
  or a fill, pops the round, runs it with the lock released and hands
  the responses to the loop with one ``call_soon_threadsafe`` as soon as
  the round has them, before it seals and commits its write-back.  The
  loop only admits and resolves, and a deadline fires on time, not on
  the loop's next millisecond tick (one round at a time, like the
  paper's per-batch critical section; a second round thread measured
  0.45–0.69x, DESIGN.md §10–11).  While the thread runs, the
  interpreter's switch interval is capped at the loop's own 1 ms grain,
  so a loop the round wakes waits no longer than that for the GIL.

Determinism: the queue, admission, policy and round counters change only
under that one lock and the thread pops the queue front, so each round
is a contiguous run of the admission order — an N-task fan-in that
enqueues in a known order produces byte-identical responses *and* a
byte-identical adversary trace to executing the same round partition
serially (``tests/test_serve_concurrent.py`` pins both digests).
Requests submitted before :meth:`start` queue, so a stream admitted
before it is partitioned independently of host speed.

A round runs once and answers its waiters once.  Over a datastore it
answers at its answer boundary; an executor that returns or raises
without answering is answered from there, with its responses or its
error (a waiter the responses leave out fails alone with
``ProtocolError``).  Nothing is retried: a round that failed after it
began leaves the proxy's cache, indexes and server out of step, so the
proxy keeps the failure and refuses every later round, before touching
the store, with a ``ProtocolError`` caused by it
(:meth:`~repro.core.proxy.WaffleProxy.handle_batch`).  Waiters already
answered keep their values, later ones get that refusal, and only a
proxy restored from a checkpoint serves again — the restore → reconnect
→ replay step the chaos runners share is
:func:`repro.testing.runner.retry_round`.
"""

from __future__ import annotations

import asyncio
import sys
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
    OverloadedError,
    ProtocolError,
)
from repro.obs import OBS
from repro.serve.policy import OnFillPolicy, ReleasePolicy
from repro.workloads.trace import Operation

__all__ = ["AsyncFrontend"]

#: A round executor: list of prepared requests -> list of responses.
RoundExecutor = Callable[[list[ClientRequest]], list[ClientResponse]]

#: The longest the event-loop thread waits for the GIL while a round thread
#: runs: the loop's own timer grain, since asyncio's epoll selector sleeps
#: in whole milliseconds.  CPython's default 5 ms would let a sealing round
#: hold a woken loop, and so every enqueue and reply, for up to 5 ms.
_LOOP_GIL_WAIT_S = 0.001


class _SwitchIntervalCap:
    """Caps ``sys.setswitchinterval`` at ``_LOOP_GIL_WAIT_S`` while any
    frontend's round thread runs; the last to stop restores what was set
    before the first started.  The interval is one per process, so the
    count of threads holding the cap is too (one module instance)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        #: the interval the cap replaced; None if it was already shorter
        self._prior: float | None = None

    def hold(self) -> None:
        with self._lock:
            if self._holders == 0:
                prior = sys.getswitchinterval()
                self._prior = prior if prior > _LOOP_GIL_WAIT_S else None
                if self._prior is not None:
                    sys.setswitchinterval(_LOOP_GIL_WAIT_S)
            self._holders += 1

    def release(self) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._prior is not None:
                sys.setswitchinterval(self._prior)


_SWITCH_INTERVAL = _SwitchIntervalCap()


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
        Admission cap on pending (undispatched) requests; a request
        offered at the cap is shed.
    execute:
        Round executor override — the chaos harness wraps the datastore
        call with fault retry/bookkeeping here.
    r:
        Batch size override when ``execute`` is supplied without a
        datastore.

    Rounds are strictly sequential, so the one ``serve-round`` thread
    :meth:`start` launches is exactly enough; :meth:`close` joins it.
    """

    def __init__(self, datastore: WaffleDatastore | None = None, *,
                 policy: ReleasePolicy | None = None,
                 queue_cap: int = 1024,
                 execute: RoundExecutor | None = None,
                 r: int | None = None) -> None:
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
        if queue_cap < 1:
            raise ConfigurationError("admission cap must be >= 1")
        self.queue_cap = queue_cap
        self._round_labels = {"policy": self.policy.name}
        #: Guards all shared state; the round thread waits on it.
        self._cond = threading.Condition()
        self._pending: deque[_Waiter] = deque()
        #: The request ids of ``_pending``: a round answers by id.
        self._pending_ids: set[int] = set()
        self._closed = False
        self._thread: threading.Thread | None = None
        self._stopped: asyncio.Future[None] | None = None
        #: Requests admitted to and shed from the pending queue, and the
        #: deepest it has been — the cap property's witness.
        self.admitted = 0
        self.shed = 0
        self.high_water = 0
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
                _SWITCH_INTERVAL.hold()  # released as the thread exits
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
        oversize value, and — with or without a datastore — a
        ``ProtocolError`` for a request id already pending, which could
        share a round with it.  Residual: a key can still vanish between
        here and its round through ``datastore.delete()``, which no wire
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
            if request.request_id in self._pending_ids:
                raise ProtocolError(
                    f"request id {request.request_id} is already pending")
            # Admission before enqueue: the pending queue can never exceed
            # its cap, and a shed request leaves no trace anywhere below.
            if len(self._pending) >= self.queue_cap:
                self.shed += 1
                raise OverloadedError(
                    f"pending queue at cap ({self.queue_cap}); retry later")
            waiter = _Waiter(request, asyncio.get_running_loop()
                             .create_future(), time.perf_counter())
            self._pending.append(waiter)
            self._pending_ids.add(request.request_id)
            pending = len(self._pending)
            self.admitted += 1
            if pending > self.high_water:
                self.high_water = pending
            # Wake the thread only if its answer changes: a deadline, a fill.
            at = self.policy.next_release(
                pending, self._pending[0].enqueued_at, waiter.enqueued_at)
            if pending == 1 or (at is not None and at <= waiter.enqueued_at):
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
        and exit."""
        policy = self.policy
        while True:
            with self._cond:
                now = time.perf_counter()
                pending = len(self._pending)
                oldest = self._pending[0].enqueued_at if pending else None
                if self._closed and not pending:
                    break
                if not self._closed:
                    at = policy.next_release(pending, oldest, now)
                    if at is None or at > now:
                        self._cond.wait(None if at is None else at - now)
                        continue
                take = [self._pending.popleft()
                        for _ in range(min(self.r, pending))]
                self._pending_ids.difference_update(
                    [waiter.request.request_id for waiter in take])
                release = policy.release(now)
                self.rounds_dispatched += 1
                self.real_requests += len(take)
                self.empty_rounds += not take
            self._run_round(loop, take, now, release)
        _SWITCH_INTERVAL.release()
        loop.call_soon_threadsafe(stopped.set_result, None)

    def _run_round(self, loop: asyncio.AbstractEventLoop,
                   take: list[_Waiter], now: float, release: float) -> None:
        """Run one round once and hand its outcome to the loop, once.

        Through :data:`~repro.core.datastore.ROUND_ANSWER` the round
        answers its waiters as soon as it has their responses: one
        ``call_soon_threadsafe``, one GIL yield so the loop resolves them
        at once, a wait for it to have done so (rarely taken; it makes the
        order certain), and only then the write-back.  An executor that
        never answers is answered the same way with what it returned or
        raised, and a replayed round's second answer is dropped.  A failure
        after the answer stays with the proxy (module docstring).
        """
        start = time.perf_counter() if OBS.enabled else None
        answered = False

        def answer(responses: list[ClientResponse],
                   error: BaseException | None = None) -> None:
            nonlocal answered
            if answered:  # a replayed round answers again: waiters hold it
                return
            answered = True
            resolved = threading.Event()
            loop.call_soon_threadsafe(self._deliver, take, now, release,
                                      start, responses, error, resolved.set)
            time.sleep(0)  # yield the GIL once: the loop resolves them now
            resolved.wait()  # or, if it could not, before the write-back

        token = ROUND_ANSWER.set(answer)
        try:
            responses, error = self._execute(
                [waiter.request for waiter in take]), None
        except BaseException as failure:  # noqa: BLE001 - waiters raise it
            responses, error = [], failure
        finally:
            ROUND_ANSWER.reset(token)
        if not answered:
            answer(responses, error)

    def _deliver(self, take: list[_Waiter], now: float, release: float,
                 start: float | None, responses: list[ClientResponse],
                 error: BaseException | None,
                 resolved: Callable[[], None]) -> None:
        """Resolve one round's waiters with its responses or its error (a
        waiter the responses leave out fails alone, with ProtocolError),
        then tell the round thread through ``resolved``; with
        observability on, record the round, its committed ``release``
        instant included."""
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
        resolved()
        if start is None:
            return
        for waiter in take:
            OBS.registry.histogram("serve.wait.seconds",
                                   **self._round_labels).observe(
                max(0.0, now - waiter.enqueued_at))
        OBS.registry.gauge("serve.pending.depth").set(len(self._pending))
        if error is None:
            OBS.registry.counter("serve.rounds.total",
                                 **self._round_labels).inc()
        OBS.observe_span("serve.round", time.perf_counter() - start,
                         labels=self._round_labels,
                         requests=len(take), error=error is not None,
                         release=release)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One flat stats row (STATS replies, bench reports, CLI)."""
        with self._cond:
            return {"cap": self.queue_cap, "depth": len(self._pending),
                    "admitted": self.admitted, "shed": self.shed,
                    "high_water": self.high_water, "policy": self.policy.name,
                    "rounds": self.rounds_dispatched,
                    "real_requests": self.real_requests,
                    "empty_rounds": self.empty_rounds}
