"""Trace-identity helper: one way to say "these two runs look the same".

The adversary sees the storage access sequence (``op:id:round:seq``);
clients see the responses.  A refactor, a kernel swap or observability
is *invisible* exactly when both digests are unchanged, so every such
claim in the test suite and the benchmarks is one call to
:func:`assert_trace_identical` with two zero-argument runs, each
returning ``(trace_digest, response_digest)``.

:func:`seeded_run` builds such a run from the fixed seeded workload
(:func:`build_proxy`, :func:`request_stream`, :func:`run_rounds`) most
callers use; the literal digests it produces are pinned in
``tests/test_trace_pin.py``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Iterable

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation

__all__ = [
    "assert_trace_identical",
    "build_proxy",
    "request_stream",
    "run_rounds",
    "seeded_run",
    "trace_digest",
]

Digests = tuple[Any, Any]


def trace_digest(records: Iterable[Any]) -> str:
    """SHA-256 over the adversary-visible ``op:id:round:seq`` sequence."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(
            f"{rec.op}:{rec.storage_id}:{rec.round}:{rec.seq}\n".encode())
    return digest.hexdigest()


def assert_trace_identical(run_a: Callable[[], Digests],
                           run_b: Callable[[], Digests]) -> Digests:
    """Run both callables; their ``(trace, responses)`` digests must match.

    Returns the common pair so a caller can additionally pin it.
    """
    a, b = run_a(), run_b()
    if a != b:
        raise AssertionError(
            f"adversary trace or responses diverged:\n  a={a}\n  b={b}")
    return a


def build_proxy(config: WaffleConfig, keychain: KeyChain,
                record: bool = False) -> WaffleProxy:
    """An initialized proxy over a write-once :class:`RedisSim` holding
    ``user%08d`` keys; ``record=True`` interposes a :class:`RecordingStore`."""
    inner = RedisSim(write_once=True)
    store = RecordingStore(inner) if record else inner
    proxy = WaffleProxy(config, store, keychain=keychain,
                        keep_round_stats=False)
    items = {
        f"user{i:08d}": (b"value-%08d" % i).ljust(config.value_size, b".")[: config.value_size]
        for i in range(config.n)
    }
    proxy.initialize(items)
    return proxy


def request_stream(config: WaffleConfig, rounds: int,
                   seed: int) -> list[list[ClientRequest]]:
    """``rounds`` seeded batches of ``config.r`` uniform requests, 30% writes."""
    rng = random.Random(seed)
    keys = [f"user{i:08d}" for i in range(config.n)]
    batches = []
    for _ in range(rounds):
        batch = []
        for _ in range(config.r):
            key = keys[rng.randrange(config.n)]
            if rng.random() < 0.3:
                value = (b"write-%08d" % rng.randrange(10**8))
                batch.append(ClientRequest(
                    op=Operation.WRITE, key=key,
                    value=value.ljust(config.value_size, b"_")[: config.value_size]))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        batches.append(batch)
    return batches


def run_rounds(proxy: WaffleProxy,
               batches: Iterable[list[ClientRequest]]) -> tuple[str, str]:
    """Drive a ``record=True`` proxy through ``batches``; return its
    ``(trace_digest, response_digest)`` pair."""
    responses = hashlib.sha256()
    for batch in batches:
        for resp in proxy.handle_batch(batch):
            responses.update(resp.key.encode() + b"\x00" + resp.value)
    return trace_digest(proxy.store.records), responses.hexdigest()


def seeded_run(config: WaffleConfig, rounds: int,
               keychain: Callable[[int], KeyChain] = KeyChain.from_seed
               ) -> Callable[[], tuple[str, str]]:
    """A zero-argument run for :func:`assert_trace_identical`: a fresh
    recorded proxy keyed by ``keychain(config.seed)``, driven through
    ``rounds`` batches of the ``config.seed`` request stream."""
    def run() -> tuple[str, str]:
        proxy = build_proxy(config, keychain(config.seed), record=True)
        return run_rounds(proxy, request_stream(config, rounds, config.seed))
    return run
