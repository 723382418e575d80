"""Access-timestamp index: the proxy's two ordered indexes (§6.1).

The paper keeps one balanced BST for real objects and one for dummy
objects, ordered on ``<ts : plaintext_key>``, to find least-recently-
accessed objects for fake queries (Challenge 2).  Here timestamps are round
counters, so every key touched in a round shares one, and the same
selection order comes from two flat stdlib structures with no tree:

* **Real index** (:class:`RealObjectIndex`): tracks *server-resident* real
  keys only — Algorithm 1 line 26 requires fake-query candidates to not be
  in the cache, so cached keys leave the index and re-enter on eviction.
  Resident keys sit in one insertion-ordered bucket per timestamp, and a
  min-heap of bucket timestamps finds the oldest bucket: every update is
  O(1) dict work and selecting ``count`` keys is O(count).  The
  authoritative ``timestamp`` of *every* real key (cached or not) is kept
  alongside, because ``GetIndex`` needs it when evicted objects are
  written back.
* **Dummy index** (:class:`DummyObjectIndex`): all ``D`` dummies are always
  server-resident and only ever leave the selection order from its front,
  so a plain ``heapq`` of ``(ts, tiebreak, key)`` is enough.  The paper
  resets all dummy timestamps once every ``D/f_D`` batches "to randomize
  the order in which dummy objects are picked".  A naive reset would
  desynchronize the selection order from the storage ids (which embed the
  timestamp of the *last write*), so the index keeps two notions per
  dummy: ``stored_ts`` — the timestamp baked into its current storage id —
  and the heap entry used for selection, whose tiebreak is redrawn on every
  epoch reset.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from typing import Any, Collection, ItemsView, Iterable, Sequence

from repro.errors import ProtocolError
from repro.seeding import seeded_rng

__all__ = ["DummyObjectIndex", "RealObjectIndex"]


def raise_first_breach(breaches: dict[str, object]) -> None:
    """Raise :class:`ProtocolError` for the first truthy entry of a
    ``message -> breach`` table; a list breach is quoted (first three)."""
    for message, breach in breaches.items():
        if breach:
            detail = f": {breach[:3]}" if isinstance(breach, list) else ""
            raise ProtocolError(f"invariant: {message}{detail}")


def _is_heap(heap: Sequence[Any]) -> bool:
    return all(heap[(i - 1) >> 1] <= heap[i] for i in range(1, len(heap)))


class RealObjectIndex:
    """Timestamps for real objects + ordered index of server-resident ones.

    Selection order is ``(timestamp, arrival)``: a key arrives at the back
    of its timestamp's bucket, which makes equal-timestamp keys FIFO, so a
    freshly evicted key cannot be indefinitely preempted by later evictions
    that happen to sort before it lexicographically (observable as an α
    tail otherwise).  A resident key's bucket is always the one of its
    current timestamp, so residency needs no position map of its own.
    """

    __slots__ = ("_timestamps", "_buckets", "_heap", "_resident")

    def __init__(self, keys: Iterable[str]) -> None:
        self._timestamps: dict[str, int] = dict.fromkeys(keys, 0)
        # timestamp -> resident keys in arrival order; never holds an
        # empty bucket.
        self._buckets: dict[int, dict[str, None]] = {}
        # Min-heap over at least the timestamps in _buckets; an entry whose
        # bucket has emptied since is skipped when it reaches the top.
        self._heap: list[int] = []
        self._resident = 0

    def __len__(self) -> int:
        return len(self._timestamps)

    def __contains__(self, key: str) -> bool:
        return key in self._timestamps

    @property
    def server_resident_count(self) -> int:
        return self._resident

    def timestamp(self, key: str) -> int:
        """Current access timestamp of ``key`` (BST.getTimestamp)."""
        return self._timestamps[key]

    def items(self) -> ItemsView[str, int]:
        """``(key, timestamp)`` of every real key, cached or not."""
        return self._timestamps.items()

    def is_server_resident(self, key: str) -> bool:
        ts = self._timestamps.get(key)
        return ts is not None and key in self._buckets.get(ts, ())

    def _arrive(self, key: str, ts: int) -> None:
        """``key`` joins the back of bucket ``ts``."""
        bucket = self._buckets.get(ts)
        if bucket is None:
            bucket = self._buckets[ts] = {}
            heap = self._heap
            if len(heap) > 2 * len(self._buckets) + 64:
                # Mostly entries of emptied buckets, which only selection
                # discards (the ``uniform`` policy never selects): rebuild.
                heap[:] = self._buckets
                heapify(heap)
            else:
                heappush(heap, ts)
        bucket[key] = None

    def _leave(self, key: str) -> bool:
        """Take ``key`` out of its bucket; False if it was not resident."""
        ts = self._timestamps[key]
        bucket = self._buckets.get(ts)
        if bucket is None or key not in bucket:
            return False
        del bucket[key]
        if not bucket:
            del self._buckets[ts]
        return True

    def set_timestamp(self, key: str, ts: int) -> None:
        """BST.setTimestamp: update ``key``'s timestamp; if the key is
        tracked as server-resident it moves to the back of bucket ``ts``."""
        resident = self._leave(key)
        self._timestamps[key] = ts
        if resident:
            self._arrive(key, ts)

    def mark_server_resident(self, key: str) -> None:
        """Key now lives on the server: make it a fake-query candidate."""
        if not self._leave(key):
            self._resident += 1
        self._arrive(key, self._timestamps[key])

    def mark_cached(self, key: str) -> None:
        """Key now lives in the cache: exclude it from fake-query selection."""
        if self._leave(key):
            self._resident -= 1

    def pop_min_keys(self, count: int, ts: int) -> list[tuple[str, int]]:
        """Batched fake-query selection: take the ``count`` least-recently-
        accessed resident keys (all there are, if fewer), stamp each with
        ``ts`` and mark it cached.

        Returns ``(key, previous_timestamp)`` pairs in selection order —
        the previous timestamp is what ``GetIndex`` must feed the PRF.
        Equivalent to ``count`` rounds of BST.getMinTimestampObj +
        :meth:`set_timestamp` + :meth:`mark_cached`, but drains bucket
        fronts instead of descending a tree ``3·count`` times.
        """
        heap, buckets, timestamps = self._heap, self._buckets, self._timestamps
        selected: list[tuple[str, int]] = []
        while heap and len(selected) < count:
            bucket_ts = heap[0]
            bucket = buckets.get(bucket_ts)
            if bucket is None:  # emptied since it was pushed
                heappop(heap)
                continue
            taken = list(islice(bucket, count - len(selected)))
            if len(taken) == len(bucket):
                heappop(heap)
                del buckets[bucket_ts]
            else:
                for key in taken:
                    del bucket[key]
            selected.extend(zip(taken, repeat(bucket_ts)))
            timestamps.update(dict.fromkeys(taken, ts))
        self._resident -= len(selected)
        return selected

    def random_resident_key(self, rng: random.Random) -> str:
        """Uniformly random server-resident key (the Challenge-2 ablation:
        what happens when fake queries ignore recency): the one at a
        random rank of the selection order."""
        rank = rng.randrange(self._resident)
        for bucket_ts in sorted(self._buckets):
            bucket = self._buckets[bucket_ts]
            if rank < len(bucket):
                return next(islice(bucket, rank, None))
            rank -= len(bucket)
        raise ProtocolError(  # pragma: no cover - the count guarantees a hit
            "invariant: resident count exceeds the bucket sizes")

    def add_key(self, key: str, ts: int) -> None:
        """Register a brand-new real key, born in the cache (insert
        support, §6.2)."""
        if key in self._timestamps:
            raise KeyError(f"key already tracked: {key}")
        self._timestamps[key] = ts

    def drop_key(self, key: str) -> None:
        """Forget a real key entirely (delete support, §6.2)."""
        self.mark_cached(key)
        del self._timestamps[key]

    def check_invariants(self) -> None:
        """Structural self-check; raises :class:`ProtocolError` naming the
        first breach.  O(N), for tests and the chaos runner."""
        timestamps, buckets, heap = self._timestamps, self._buckets, self._heap
        bucketed = sum(map(len, buckets.values()))
        breaches = {
            "real index holds an empty bucket":
                [ts for ts, bucket in buckets.items() if not bucket],
            "real key filed under a timestamp that is not its own":
                [key for ts, bucket in buckets.items() for key in bucket
                 if timestamps.get(key) != ts],
            f"real index counts {self._resident} resident keys, buckets "
            f"hold {bucketed}": self._resident != bucketed,
            "bucket timestamp missing from the real index heap":
                sorted(buckets.keys() - set(heap)),
            "real index heap out of order": not _is_heap(heap),
        }
        raise_first_breach(breaches)


class DummyObjectIndex:
    """Selection order and stored timestamps for the ``D`` dummy objects."""

    __slots__ = ("_stored_ts", "_heap", "_rng", "_accessed_since_reset",
                 "reshuffle")

    def __init__(self, keys: Iterable[str], seed: int | None = None,
                 reshuffle: bool = True) -> None:
        self._rng = seeded_rng(seed)
        #: Apply the paper's epoch reset (see WaffleConfig.dummy_policy).
        self.reshuffle = reshuffle
        self._stored_ts: dict[str, int] = dict.fromkeys(keys, 0)
        # (timestamp of the last access or epoch reset, random tiebreak,
        # key), least first.  Holds every dummy except those a round has
        # taken and not yet recorded or retired.
        self._heap = [(0, self._rng.random(), key) for key in self._stored_ts]
        heapify(self._heap)
        self._accessed_since_reset = 0

    def __len__(self) -> int:
        return len(self._stored_ts)

    def __contains__(self, key: str) -> bool:
        return key in self._stored_ts

    def stored_timestamp(self, key: str) -> int:
        """Timestamp embedded in the dummy's current storage id."""
        return self._stored_ts[key]

    def items(self) -> ItemsView[str, int]:
        """``(key, stored timestamp)`` of every dummy."""
        return self._stored_ts.items()

    def take_min_keys(self, count: int) -> list[str]:
        """Batched BST.getMinTimestampObj: detach the ``count`` least keys.

        Stored timestamps are untouched (``GetIndex`` still needs them for
        the ids being read), and the keys leave the selection heap, so a
        dummy cannot be selected twice in one batch.  Callers must follow
        up with :meth:`record_access_many` (rewritten dummies) and/or
        :meth:`retire` (dummies swapped out for inserted real objects).
        """
        heap = self._heap
        return [heappop(heap)[2] for _ in range(min(count, len(heap)))]

    def record_access_many(self, keys: Collection[str], ts: int) -> None:
        """The dummies ``keys``, detached by :meth:`take_min_keys`, were just
        read: their next storage ids embed ``ts``, and they rejoin the
        selection heap (tiebreak draws in ``keys`` order).

        Once every dummy has been accessed (``D`` accesses) all selection
        positions are reshuffled — the paper's epoch reset — while stored
        timestamps advance normally; :meth:`end_round` applies the reset,
        after the round's write phase has written the new ids."""
        for key in keys:
            self._stored_ts[key] = ts
            heappush(self._heap, (ts, self._rng.random(), key))
        self._accessed_since_reset += len(keys)

    def retire(self, key: str) -> int:
        """Forget a dummy already detached by :meth:`take_min_keys` (insert
        support swaps it for a real key); returns its stored timestamp."""
        return self._stored_ts.pop(key)

    def end_round(self, ts: int) -> None:
        """Apply the epoch reset if every dummy has been accessed."""
        if not self.reshuffle:
            return
        if self._stored_ts and self._accessed_since_reset >= len(self._stored_ts):
            self._reshuffle(ts)
            self._accessed_since_reset = 0

    def _reshuffle(self, ts: int) -> None:
        entries = list(self._stored_ts)
        self._rng.shuffle(entries)
        self._heap = [(ts, self._rng.random(), key) for key in entries]
        heapify(self._heap)

    def swap_in(self, key: str, ts: int) -> None:
        """Add a dummy (delete support swaps a real key for a dummy)."""
        if key in self._stored_ts:
            raise KeyError(f"dummy already tracked: {key}")
        self._stored_ts[key] = ts
        heappush(self._heap, (ts, self._rng.random(), key))

    def check_invariants(self) -> None:
        """Structural self-check, valid between rounds (no dummy taken and
        not yet recorded or retired); raises :class:`ProtocolError` naming
        the first breach.  O(D log D), for tests and the chaos runner."""
        stored, heap = self._stored_ts, self._heap
        breaches = {
            "dummy heap and stored timestamps hold different keys":
                sorted(key for _, _, key in heap) != sorted(stored),
            # Equal until an epoch reset requeues every dummy under the
            # epoch's timestamp.
            "dummy queued ahead of its stored timestamp":
                [key for ts, _, key in heap if stored.get(key, ts) > ts],
            "dummy index heap out of order": not _is_heap(heap),
        }
        raise_first_breach(breaches)
