"""Storage substrate: the untrusted server side of every system.

The paper's testbed runs Redis on a separate machine.  This package
provides a Redis-like in-process server (:class:`RedisSim`) behind a small
backend interface — the batched calls a round makes — a forwarding
wrapper (:class:`PassthroughStore`), and an access-recording wrapper that
captures exactly what a passive persistent adversary observes.
"""

from repro.storage.base import PassthroughStore, StorageBackend
from repro.storage.recording import AccessRecord, RecordingStore
from repro.storage.redis_sim import RedisSim

__all__ = [
    "AccessRecord",
    "PassthroughStore",
    "RecordingStore",
    "RedisSim",
    "StorageBackend",
]
