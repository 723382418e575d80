"""Access-timestamp index: the proxy's two ordered indexes (§6.1).

The paper keeps one balanced BST for real objects and one for dummy
objects, ordered on ``<ts : plaintext_key>``, to find least-recently-
accessed objects for fake queries (Challenge 2).  Here timestamps are round
counters, so every object touched in a round shares one, and the same
selection order comes from two flat structures of the proxy's int slots:

* **Real index** (:class:`RealObjectIndex`): tracks *server-resident* real
  slots only — Algorithm 1 line 26 requires fake-query candidates to not be
  in the cache, so cached slots leave the index and re-enter on eviction.
  Resident slots sit in one insertion-ordered bucket per timestamp, and a
  min-heap of bucket timestamps finds the oldest bucket: every update is
  O(1) and selecting ``count`` slots is O(count).  The authoritative
  ``timestamp`` of *every* real slot (cached or not) and its residency are
  kept alongside in flat per-slot arrays, because ``GetIndex`` needs the
  timestamp when evicted objects are written back.
* **Dummy index** (:class:`DummyObjectIndex`): all ``D`` dummies are always
  server-resident and only ever leave the selection order from its front,
  so a plain ``heapq`` of ``(ts, tiebreak, slot)`` is enough.  The paper
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
from itertools import islice
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
    """Timestamps of real objects + ordered index of server-resident ones.

    Slots are ints below ``size`` (the proxy's key table says which are
    real); each one's timestamp and residency live in flat per-slot
    arrays, the shape of Path ORAM's position map.  Selection order is
    ``(timestamp, arrival)``: a slot arrives at the back of its
    timestamp's bucket, which makes equal-timestamp keys FIFO, so a freshly
    evicted key cannot be indefinitely preempted by later evictions (an α
    tail otherwise).  A resident slot's bucket is always the one of its
    current timestamp.
    """

    __slots__ = ("_timestamps", "_on_server", "_buckets", "_heap", "_resident")

    def __init__(self, size: int) -> None:
        self._timestamps = [0] * size
        self._on_server = bytearray(size)
        # timestamp -> resident slots in arrival order; never holds an
        # empty bucket.
        self._buckets: dict[int, dict[int, None]] = {}
        # Min-heap over at least the timestamps in _buckets; an entry whose
        # bucket has emptied since is skipped when it reaches the top.
        self._heap: list[int] = []
        self._resident = 0

    @property
    def server_resident_count(self) -> int:
        return self._resident

    def timestamp(self, slot: int) -> int:
        """Current access timestamp of ``slot`` (BST.getTimestamp)."""
        return self._timestamps[slot]

    def is_server_resident(self, slot: int) -> bool:
        return bool(self._on_server[slot])

    def _arrive(self, slot: int, ts: int) -> None:
        """``slot`` joins the back of bucket ``ts``."""
        bucket = self._buckets.get(ts)
        if bucket is None:
            bucket = self._buckets[ts] = {}
            heap = self._heap
            if len(heap) > 2 * len(self._buckets) + 64:
                # Mostly entries of emptied buckets, which only selection
                # discards (a pick that re-stamps slots one at a time, as
                # the uniform ablation's does, leaves them): rebuild.
                heap[:] = self._buckets
                heapify(heap)
            else:
                heappush(heap, ts)
        bucket[slot] = None

    def _leave(self, slot: int) -> bool:
        """Take ``slot`` out of its bucket; False if it was not resident."""
        if not self._on_server[slot]:
            return False
        ts = self._timestamps[slot]
        bucket = self._buckets[ts]
        del bucket[slot]
        if not bucket:
            del self._buckets[ts]
        return True

    def set_timestamp(self, slot: int, ts: int) -> None:
        """BST.setTimestamp: update ``slot``'s timestamp; if it is server-
        resident it moves to the back of bucket ``ts``."""
        resident = self._leave(slot)
        self._timestamps[slot] = ts
        if resident:
            self._arrive(slot, ts)

    def mark_server_resident(self, slot: int) -> None:
        """The object now lives on the server: a fake-query candidate."""
        if not self._leave(slot):
            self._resident += 1
            self._on_server[slot] = 1
        self._arrive(slot, self._timestamps[slot])

    def mark_server_resident_many(self, slots: Iterable[int]) -> None:
        """:meth:`mark_server_resident` of each of ``slots``, in order: each
        joins the back of its timestamp's bucket (the evictions of a round,
        in eviction order)."""
        timestamps, on_server, buckets = (self._timestamps, self._on_server,
                                          self._buckets)
        arrived = 0
        for slot in slots:
            if on_server[slot]:
                self._leave(slot)
            else:
                on_server[slot] = 1
                arrived += 1
            ts = timestamps[slot]
            bucket = buckets.get(ts)
            if bucket is None:
                self._arrive(slot, ts)
            else:
                bucket[slot] = None
        self._resident += arrived

    def mark_cached(self, slot: int) -> None:
        """The object now lives in the cache (or is gone): exclude it from
        fake-query selection."""
        if self._leave(slot):
            self._resident -= 1
            self._on_server[slot] = 0

    def mark_cached_many(self, slots: Iterable[int], ts: int) -> None:
        """:meth:`mark_cached` then :meth:`set_timestamp` ``ts`` of each of
        ``slots``: the round's misses, fetched into the cache."""
        timestamps, on_server, leave = (self._timestamps, self._on_server,
                                        self._leave)
        left = 0
        for slot in slots:
            if leave(slot):
                on_server[slot] = 0
                left += 1
            timestamps[slot] = ts
        self._resident -= left

    def pop_min_keys(self, count: int, ts: int) -> list[int]:
        """Batched fake-query selection: take the ``count`` least-recently-
        accessed resident slots (all there are, if fewer), stamp each with
        ``ts`` and mark it cached; returns them in selection order.

        Equivalent to ``count`` rounds of BST.getMinTimestampObj +
        :meth:`set_timestamp` + :meth:`mark_cached`, but drains bucket
        fronts instead of descending a tree ``3·count`` times.
        """
        heap, buckets = self._heap, self._buckets
        timestamps, on_server = self._timestamps, self._on_server
        selected: list[int] = []
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
                for slot in taken:
                    del bucket[slot]
            selected += taken
        for slot in selected:
            timestamps[slot] = ts
            on_server[slot] = 0
        self._resident -= len(selected)
        return selected

    def random_resident_key(self, rng: random.Random) -> int:
        """Uniformly random server-resident slot (the Challenge-2 ablation:
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

    def check_invariants(self) -> None:
        """Structural self-check; raises :class:`ProtocolError` naming the
        first breach.  O(N), for tests and the chaos runner."""
        timestamps, buckets, heap = self._timestamps, self._buckets, self._heap
        bucketed = [slot for bucket in buckets.values() for slot in bucket]
        flagged = self._on_server.count(1)
        breaches = {
            "real index holds an empty bucket":
                [ts for ts, bucket in buckets.items() if not bucket],
            "real key filed under a timestamp that is not its own":
                [slot for ts, bucket in buckets.items() for slot in bucket
                 if timestamps[slot] != ts],
            f"real index counts {self._resident} resident keys, buckets "
            f"hold {len(bucketed)}, flags {flagged}":
                not self._resident == len(bucketed) == flagged,
            "bucketed key not flagged resident":
                [slot for slot in bucketed if not self._on_server[slot]],
            "bucket timestamp missing from the real index heap":
                sorted(buckets.keys() - set(heap)),
            "real index heap out of order": not _is_heap(heap),
        }
        raise_first_breach(breaches)


class DummyObjectIndex:
    """Selection order and stored timestamps for the ``D`` dummy objects."""

    # No slot is named like a configuration value ("reshuffle"): in a
    # snapshot pickle the interned name and the config's interned string
    # would share one memo entry that a restored proxy cannot, and the
    # blob would stop being a fixed point of restore + capture.
    __slots__ = ("_stored_ts", "_heap", "_rng", "_accessed_since_reset",
                 "_epoch_reset")

    def __init__(self, keys: Iterable[int], seed: int | None = None,
                 reshuffle: bool = True) -> None:
        self._rng = seeded_rng(seed)
        #: Apply the paper's epoch reset (see WaffleConfig.dummy_policy).
        self._epoch_reset = reshuffle
        self._stored_ts: dict[int, int] = dict.fromkeys(keys, 0)
        # (timestamp of the last access or epoch reset, random tiebreak,
        # slot), least first.  Holds every dummy except those a round has
        # taken and not yet recorded or retired.
        self._heap = [(0, self._rng.random(), key) for key in self._stored_ts]
        heapify(self._heap)
        self._accessed_since_reset = 0

    def __len__(self) -> int:
        return len(self._stored_ts)

    def __contains__(self, key: int) -> bool:
        return key in self._stored_ts

    def items(self) -> ItemsView[int, int]:
        """``(slot, stored timestamp)`` of every dummy: the timestamp its
        current storage id embeds."""
        return self._stored_ts.items()

    def take_min_keys(self, count: int) -> list[int]:
        """Batched BST.getMinTimestampObj: detach the ``count`` least keys.

        Stored timestamps are untouched (``GetIndex`` still needs them for
        the ids being read), and the keys leave the selection heap, so a
        dummy cannot be selected twice in one batch.  Callers must follow
        up with :meth:`record_access_many` (rewritten dummies) and/or
        :meth:`retire` (dummies swapped out for inserted real objects).
        """
        heap = self._heap
        return [heappop(heap)[2] for _ in range(min(count, len(heap)))]

    def record_access_many(self, keys: Collection[int], ts: int) -> None:
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

    def retire(self, key: int) -> int:
        """Forget a dummy already detached by :meth:`take_min_keys` (insert
        support swaps it for a real key); returns its stored timestamp."""
        return self._stored_ts.pop(key)

    def end_round(self, ts: int) -> None:
        """Apply the epoch reset if every dummy has been accessed."""
        if not self._epoch_reset:
            return
        if self._stored_ts and self._accessed_since_reset >= len(self._stored_ts):
            self._reshuffle(ts)
            self._accessed_since_reset = 0

    def _reshuffle(self, ts: int) -> None:
        entries = list(self._stored_ts)
        self._rng.shuffle(entries)
        self._heap = [(ts, self._rng.random(), key) for key in entries]
        heapify(self._heap)

    def swap_in(self, key: int, ts: int) -> None:
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
