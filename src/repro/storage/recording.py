"""The adversary's viewpoint: a storage wrapper that records every access.

Waffle's threat model (§3.2) is a passive persistent adversary who observes
every read/write/delete of every (encrypted) storage id but cannot inject
queries.  :class:`RecordingStore` wraps any backend and captures exactly
that view — the sequence of ``(operation, storage_id, round)`` tuples —
which the analysis package replays to measure α/β uniformity (Definition 1)
and to mount inference attacks.

Rounds: Waffle's α/β bounds are stated in batched server accesses (§5.1:
"if the proxy accesses objects in batches, α, β, i and j correspond to the
batched accesses").  The proxy advances the recorder's round counter once
per read-batch/write-batch pair via :meth:`next_round`, and Pancake once
per batch, through any wrappers stacked above the recorder; unbatched
systems (the insecure baseline, TaoStore) never advance it, and their
records are ordered by ``seq`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.obs import OBS
from repro.storage.base import PassthroughStore, StorageBackend

__all__ = ["AccessRecord", "RecordingStore"]


@dataclass(frozen=True, slots=True)
class AccessRecord:
    """One adversary-observable server access."""

    op: str  # "read" | "write" | "delete"
    storage_id: str
    round: int
    #: Position of this access in the global observed sequence.
    seq: int


class RecordingStore(PassthroughStore):
    """Pass-through backend that logs the adversary-visible trace."""

    __slots__ = ("records", "_round", "_seq")

    def __init__(self, inner: StorageBackend) -> None:
        super().__init__(inner)
        self.records: list[AccessRecord] = []
        self._round = 0
        self._seq = 0

    @property
    def round(self) -> int:
        return self._round

    def next_round(self) -> int:
        """Advance the batch-round counter; returns the new round."""
        self._round += 1
        return self._round

    def _record(self, op: str, storage_id: str) -> None:
        self.records.append(AccessRecord(op, storage_id, self._round, self._seq))
        self._seq += 1
        if OBS.enabled:
            # The live trace of the adversary-visible channel: one event
            # per access, which repro.analysis.Adversary.attach consumes.
            OBS.tracer.event("storage.access", op=op, id=storage_id,
                             round=self._round)
            OBS.registry.counter("storage.accesses.total", op=op).inc()

    # ------------------------------------------------------------------
    # The calls that access ids (an access is recorded before the backend
    # sees it); everything else passes through.
    # ------------------------------------------------------------------
    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        for key in keys:
            self._record("read", key)
        return self._inner.multi_get(keys)

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        # Recorded as the backend pulls it: an initial load is a stream
        # (WaffleProxy.initialize), and the recorder must not be the one
        # place that holds all of it.
        self._inner.multi_put(self._recording_writes(items))

    def _recording_writes(
            self, items: Iterable[tuple[str, bytes]],
    ) -> Iterator[tuple[str, bytes]]:
        for item in items:
            self._record("write", item[0])
            yield item

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # The adversary sees the same access sequence whether the round
        # commits atomically or as separate delete/write batches.
        puts = list(puts)
        for key in deletes:
            self._record("delete", key)
        for key, _ in puts:
            self._record("write", key)
        self._inner.commit_round(deletes, puts)

    def clear_records(self) -> None:
        """Drop the trace collected so far (keeps round/seq counters)."""
        self.records = []
