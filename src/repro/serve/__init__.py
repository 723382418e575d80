"""``repro.serve`` — the asyncio serving frontend.

The proxy below runs one batched round at a time; this package is the
piece that faces the *clients*: a long-lived asyncio server that
accepts thousands of concurrent connections, coalesces arriving get/put
requests into Waffle rounds, and applies an explicit
admission/backpressure policy so that overload degrades into retryable
shedding instead of unbounded queueing.

Three layers (DESIGN.md §13):

* :mod:`repro.serve.policy` — pluggable round-release schedulers
  (on-fill, max-wait, fixed-interval).  Policies are pure decision
  functions over timestamps, so the same objects drive the live server
  on ``time.perf_counter`` and the deterministic tests on a
  :class:`~repro.sim.clock.SimClock`.
* :mod:`repro.serve.frontend` — :class:`AsyncFrontend`, the coalescing
  core: a pending queue bounded at its admission cap and one
  round thread that decides when each round is due and runs it, one at
  a time, off the event loop.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` —
  :class:`ServeServer` speaking the :mod:`repro.net.protocol` framing
  over asyncio streams, and :class:`AsyncServeClient`, its stub.

One frontend serves one proxy, just as one stateful proxy serves every
client in the paper (§3.1).

The security posture of every release policy is *observable*: the
frontend records the release instant each policy commits to, and the
PR-7 timing observatory (:mod:`repro.analysis.timing`) scores the live
schedule exactly like the simulated one — fixed-interval release scores
0.0 leakage because its committed schedule is a constant grid.
"""

from repro.serve.client import AsyncServeClient
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import (
    FixedIntervalPolicy,
    MaxWaitPolicy,
    OnFillPolicy,
    ReleasePolicy,
    make_policy,
)
from repro.serve.server import ServeServer

__all__ = [
    "AsyncFrontend",
    "AsyncServeClient",
    "FixedIntervalPolicy",
    "MaxWaitPolicy",
    "OnFillPolicy",
    "ReleasePolicy",
    "ServeServer",
    "make_policy",
]
