"""Shared-memory batch transport for the worker pool (coordinator side).

PR 5's engine shipped every chunk as a pickled bytes payload through the
``multiprocessing`` pipe — one copy into the pickle stream, one through
the OS pipe, one out of the unpickler, each way — pooled speedups of
0.52–0.67x, the transport eating more than the crypto it fed.  This
module replaced the pipe with
:mod:`multiprocessing.shared_memory` ring segments:

* the coordinator packs a chunk's length-prefixed frames straight into a
  preallocated ``SharedMemory`` segment via ``memoryview`` slice
  assignment (one copy, total);
* the worker maps the same segment and iterates *views* over the frames
  (zero copy on the request side), writing its output frames into a
  second, response segment;
* the only objects crossing the pipe are the segment names and two
  integers.

:class:`SegmentPool` owns segment lifecycle.  Segments are acquired per
chunk and released back to a free-list when the chunk's results have
been read, so the steady state of a long run allocates nothing: a round
reuses the same few segments over and over (power-of-two sizing makes a
free segment reusable for any same-magnitude chunk).  ``close()``
unlinks every segment ever created — the pool is the single owner, and
a closed pool leaves nothing behind in ``/dev/shm`` even after worker
crashes (workers only ever *attach*; they never own).

One POSIX footgun is handled explicitly: on Python 3.11,
``SharedMemory(name=...)`` — a plain attach — also registers the
segment with the process's ``resource_tracker`` (bpo-38119), so a
worker exiting would have its tracker unlink segments the coordinator
still owns and spam stderr with leak warnings.  Workers therefore
unregister immediately after attaching (see
:func:`repro.parallel.worker.run_chunk_shm`); ownership stays with this
pool alone.
"""

from __future__ import annotations

import itertools
import os
import threading
from multiprocessing import shared_memory

from repro.obs import OBS

__all__ = ["SegmentPool"]

#: Smallest segment ever allocated.  Page-sized chunks are pointless to
#: distinguish; rounding small requests up here keeps the free-list from
#: fragmenting into unreusable slivers.
_MIN_SEGMENT = 4096

#: Process-wide counter so every pool's segments get distinct names even
#: when several pools coexist (shard-parallel partitions each hold one).
_SEQ = itertools.count()


def _round_up(nbytes: int) -> int:
    """Power-of-two size class for ``nbytes`` (min one page)."""
    size = _MIN_SEGMENT
    while size < nbytes:
        size *= 2
    return size


class SegmentPool:
    """Free-listed ``SharedMemory`` segments for chunk transport.

    Parameters
    ----------
    workers:
        Worker count of the owning pool — only used to label the
        ``parallel.shm.*`` metrics so the dashboard can attribute
        segment traffic per pool size.

    Thread-safe: one pool may serve several proxies (shard-parallel
    partitions run on threads), so two ``run()`` calls may acquire
    concurrently.
    """

    __slots__ = ("_prefix", "_workers", "_lock", "_free", "_all", "_closed")

    def __init__(self, workers: int = 0) -> None:
        # The pid in the prefix scopes leak checks (tests glob
        # /dev/shm/<prefix>*) and survives fork: children inherit the
        # name but never create under it.
        self._prefix = f"repro-shm-{os.getpid()}-{next(_SEQ)}"
        self._workers = workers
        self._lock = threading.Lock()
        self._free: list[shared_memory.SharedMemory] = []
        self._all: list[shared_memory.SharedMemory] = []
        self._closed = False

    @property
    def prefix(self) -> str:
        """Name prefix of every segment this pool creates."""
        return self._prefix

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A segment of at least ``nbytes``, reused from the free-list.

        Best-fit over the free-list; a miss allocates a fresh segment in
        the next power-of-two size class.  The caller must hand the
        segment back via :meth:`release` once its contents have been
        consumed — segments are never garbage-collected mid-run.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("segment pool is closed")
            best = None
            for index, segment in enumerate(self._free):
                if segment.size >= nbytes and (
                        best is None or segment.size < self._free[best].size):
                    best = index
            if best is not None:
                segment = self._free.pop(best)
                if OBS.enabled:
                    OBS.registry.counter(
                        "parallel.shm.segments.total", event="reused",
                        workers=str(self._workers)).inc()
                return segment
            segment = shared_memory.SharedMemory(
                name=f"{self._prefix}-{next(_SEQ)}", create=True,
                size=_round_up(nbytes))
            self._all.append(segment)
        if OBS.enabled:
            OBS.registry.counter(
                "parallel.shm.segments.total", event="created",
                workers=str(self._workers)).inc()
            OBS.registry.gauge(
                "parallel.shm.bytes.held",
                workers=str(self._workers)).set(
                    sum(seg.size for seg in self._all))
        return segment

    def release(self, segment: shared_memory.SharedMemory) -> None:
        """Return ``segment`` to the free-list for the next chunk."""
        with self._lock:
            if self._closed:
                return
            self._free.append(segment)

    def close(self) -> None:
        """Unlink every segment ever created (idempotent).

        Callers must stop the worker processes first: unlinking only
        removes the name, so live workers keep valid mappings, but a
        name-based re-attach (a chunk submitted after close) would fail.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = self._all
            self._all = []
            self._free = []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views live
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SegmentPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
