"""Proxy state checkpointing.

A checkpoint must capture everything that influences future proxy
behaviour, because obliviousness depends on determinism of the restored
replica: which objects are picked for fake queries (both timestamp
indexes, including tie-break order), the cache contents *and LRU order*
(β depends on eviction order), the global timestamp, the RNG (load
order, cache seeding, new dummies' names), the pending mutation queue,
the keychain and the lifetime statistics.

The state lives entirely in the trusted domain (§3.1), so a standard
:mod:`pickle` blob is appropriate — this is proxy-to-standby shipping
inside one administrative domain, not an external wire format.  The
untrusted server handle is deliberately *not* part of the checkpoint;
:func:`restore_proxy` reattaches whichever store handle the new primary
should use.
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.core.proxy import WaffleProxy
from repro.errors import ProtocolError
from repro.storage.base import StorageBackend

__all__ = ["capture_proxy", "restore_proxy"]

#: Every attribute that, together, fully determines proxy behaviour.
_STATE_ATTRIBUTES = (
    "config",
    "keychain",
    "cache",
    "ts",
    "totals",
    "mutations",
    "_rng",
    "_names", "_slots", "_is_dummy",
    "_real_index",
    "_dummy_index",
    "_initialized",
    "_last_stats",
    "_keep_round_stats",
    "id_log",
)


def capture_proxy(proxy: WaffleProxy) -> bytes:
    """Serialize the proxy's complete trusted state to a blob.

    Per-round statistics are telemetry, not behaviour: they are dropped
    from the snapshot (they would otherwise grow without bound and
    dominate shipping cost on long-lived proxies).

    The store is flushed first: a networked store hands a round's commit
    over without waiting for the server's answer, and a checkpoint must
    never describe a round the server has not acknowledged — a replica
    restored from it re-derives every id it needs from this state.  What
    the server refused is raised here and no blob is made; the server
    then lacks a round the proxy believes in, so the refusal fails the
    proxy (:attr:`~repro.core.proxy.WaffleProxy.failure`) as a failed round
    does.  A failed proxy is refused before anything is flushed.
    """
    proxy.refuse_after_failure()
    if not proxy._initialized:
        raise ProtocolError("cannot checkpoint an uninitialized proxy")
    try:
        proxy.store.flush()
    except BaseException as error:
        proxy.failure = error
        raise
    state = {name: getattr(proxy, name) for name in _STATE_ATTRIBUTES}
    state["totals"] = dataclasses.replace(state["totals"], stats_by_round=[])
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def restore_proxy(blob: bytes, store: StorageBackend) -> WaffleProxy:
    """Reconstruct a proxy from a checkpoint, attached to ``store``.

    The restored proxy is behaviourally identical to the captured one:
    fed the same request batches it produces the same responses and the
    same server access sequence.  The ids its slots remember (a cache of
    PRF outputs) are not in the blob; they are derived again here.
    """
    state = pickle.loads(blob)
    proxy = WaffleProxy.__new__(WaffleProxy)
    proxy.store = store
    for name, value in state.items():
        setattr(proxy, name, value)
    proxy._rederive_ids()
    return proxy
