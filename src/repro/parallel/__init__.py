"""``repro.parallel`` — real multi-core round execution.

Two composable mechanisms (DESIGN.md §10):

* :class:`~repro.parallel.engine.WorkerPool` +
  :func:`~repro.parallel.engine.attach_pool` — spread the
  embarrassingly-parallel kernel phases of a round (PRF id derivation,
  AEAD encrypt/decrypt over the B+D batch) across process workers while
  the serial assembly phase stays on the coordinating thread;
* ``shard_workers`` on
  :class:`~repro.scaleout.partitioned.PartitionedWaffle` — independent
  partitions execute their rounds concurrently.

Both preserve the adversary-visible trace byte-for-byte relative
to serial execution — the invariant everything in this repository's
security argument rests on.
"""

from repro.parallel.engine import (
    PooledCipher,
    PooledPrf,
    WorkerPool,
    attach_pool,
    detach_pool,
)
from repro.parallel.shm import SegmentPool
from repro.parallel.worker import iter_frames, pack_frames, unpack_frames

__all__ = [
    "PooledCipher",
    "PooledPrf",
    "SegmentPool",
    "WorkerPool",
    "attach_pool",
    "detach_pool",
    "iter_frames",
    "pack_frames",
    "unpack_frames",
]
