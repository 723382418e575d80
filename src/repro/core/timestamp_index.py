"""Access-timestamp index: the proxy's two balanced BSTs (§6.1).

Waffle maintains one balanced BST for real objects and one for dummy
objects, ordered on ``<ts : plaintext_key>``, to find least-recently-
accessed objects for fake queries (Challenge 2).  This module wraps the
treap substrate with Waffle's specific semantics:

* **Real index** (:class:`RealObjectIndex`): tracks *server-resident* real
  keys only — Algorithm 1 line 26 requires fake-query candidates to not be
  in the cache, so cached keys are removed from the tree and re-inserted
  on eviction.  The authoritative ``timestamp`` of *every* real key (cached
  or not) is kept alongside, because ``GetIndex`` needs it when evicted
  objects are written back.
* **Dummy index** (:class:`DummyObjectIndex`): all ``D`` dummies are always
  server-resident.  The paper resets all dummy timestamps once every
  ``D/f_D`` batches "to randomize the order in which dummy objects are
  picked".  A naive reset would desynchronize the selection order from the
  storage ids (which embed the timestamp of the *last write*), so the
  index keeps two notions per dummy: ``stored_ts`` — the timestamp baked
  into its current storage id — and the tree position used for selection,
  whose tiebreak is reshuffled on every epoch reset.
"""

from __future__ import annotations

import random
from typing import ItemsView, Iterable

from repro.ds.treap import Treap
from repro.seeding import derive_seed, seeded_rng

__all__ = ["DummyObjectIndex", "RealObjectIndex"]


class RealObjectIndex:
    """Timestamps for real objects + ordered index of server-resident ones.

    Tree order is ``(timestamp, arrival, key)``: the arrival counter makes
    equal-timestamp keys FIFO, so a freshly evicted key cannot be
    indefinitely preempted by later evictions that happen to sort before
    it lexicographically (observable as an α tail otherwise).
    """

    __slots__ = ("_timestamps", "_tree", "_arrivals")

    def __init__(self, keys: Iterable[str],
                 seed: int | None = None) -> None:
        self._timestamps: dict[str, int] = dict.fromkeys(keys, 0)
        self._tree = Treap(seed=seed)
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._timestamps)

    def __contains__(self, key: str) -> bool:
        return key in self._timestamps

    @property
    def server_resident_count(self) -> int:
        return len(self._tree)

    def timestamp(self, key: str) -> int:
        """Current access timestamp of ``key`` (BST.getTimestamp)."""
        return self._timestamps[key]

    def items(self) -> ItemsView[str, int]:
        """``(key, timestamp)`` of every real key, cached or not."""
        return self._timestamps.items()

    def is_server_resident(self, key: str) -> bool:
        return key in self._tree

    def _next_arrival(self) -> int:
        self._arrivals += 1
        return self._arrivals

    def set_timestamp(self, key: str, ts: int) -> None:
        """BST.setTimestamp: update ``key``'s timestamp; if the key is
        tracked as server-resident its tree position moves accordingly."""
        if key not in self._timestamps:
            raise KeyError(key)
        self._timestamps[key] = ts
        if key in self._tree:
            self._tree.insert(key, (ts, self._next_arrival(), key))

    def mark_server_resident(self, key: str) -> None:
        """Key now lives on the server: make it a fake-query candidate."""
        self._tree.insert(
            key, (self._timestamps[key], self._next_arrival(), key))

    def mark_cached(self, key: str) -> None:
        """Key now lives in the cache: exclude it from fake-query selection."""
        if key in self._tree:
            self._tree.remove(key)

    def pop_min_keys(self, count: int, ts: int) -> list[tuple[str, int]]:
        """Batched fake-query selection: take the ``count`` least-recently-
        accessed resident keys, stamp each with ``ts`` and mark it cached.

        Returns ``(key, previous_timestamp)`` pairs in selection order —
        the previous timestamp is what ``GetIndex`` must feed the PRF.
        Equivalent to ``count`` rounds of BST.getMinTimestampObj +
        :meth:`set_timestamp` + :meth:`mark_cached` (including the arrival
        counter, so eviction FIFO tiebreaks are unchanged), but the tree
        is descended once instead of ``3·count`` times.
        """
        selected: list[tuple[str, int]] = []
        for _, key in self._tree.pop_min_many(count):
            selected.append((key, self._timestamps[key]))
            self._timestamps[key] = ts
            self._arrivals += 1
        return selected

    def random_resident_key(self, rng: random.Random) -> str:
        """Uniformly random server-resident key (the Challenge-2 ablation:
        what happens when fake queries ignore recency)."""
        _, key = self._tree.select(rng.randrange(len(self._tree)))
        return key

    def add_key(self, key: str, ts: int) -> None:
        """Register a brand-new real key, born in the cache (insert
        support, §6.2)."""
        if key in self._timestamps:
            raise KeyError(f"key already tracked: {key}")
        self._timestamps[key] = ts

    def drop_key(self, key: str) -> None:
        """Forget a real key entirely (delete support, §6.2)."""
        del self._timestamps[key]
        if key in self._tree:
            self._tree.remove(key)


class DummyObjectIndex:
    """Selection order and stored timestamps for the ``D`` dummy objects."""

    __slots__ = ("_stored_ts", "_tree", "_rng", "_accessed_since_reset",
                 "reshuffle")

    def __init__(self, keys: Iterable[str], seed: int | None = None,
                 reshuffle: bool = True) -> None:
        self._rng = seeded_rng(seed)
        #: Apply the paper's epoch reset (see WaffleConfig.dummy_policy).
        self.reshuffle = reshuffle
        self._stored_ts: dict[str, int] = {}
        self._tree = Treap(seed=derive_seed(seed, stream=1))
        for key in keys:
            self._stored_ts[key] = 0
            self._tree.insert(key, (0, self._rng.random(), key))
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
        the ids being read), and the keys leave the selection tree, so a
        dummy cannot be selected twice in one batch.  Callers must follow
        up with :meth:`record_access_many` (rewritten dummies) and/or
        :meth:`retire` (dummies swapped out for inserted real objects).
        """
        return [key for _, key in self._tree.pop_min_many(count)]

    def record_access_many(self, keys: Iterable[str], ts: int) -> None:
        """The dummies ``keys``, detached by :meth:`take_min_keys`, were just
        read: their next storage ids embed ``ts``, and they rejoin the
        selection tree (tiebreak draws in ``keys`` order).

        Once every dummy has been accessed (``D`` accesses) all selection
        positions are reshuffled — the paper's epoch reset — while stored
        timestamps advance normally; :meth:`end_round` applies the reset,
        after the round's write phase has written the new ids."""
        for key in keys:
            self._stored_ts[key] = ts
            self._tree.insert(key, (ts, self._rng.random(), key))
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
        # Seed the rebuilt tree from the epoch timestamp: deterministic
        # under replay, varies per epoch, and consumes no draws from
        # self._rng (whose stream pinned traces depend on).
        fresh = Treap(seed=derive_seed(ts, stream=1))
        for key in entries:
            fresh.insert(key, (ts, self._rng.random(), key))
        self._tree = fresh

    def swap_in(self, key: str, ts: int) -> None:
        """Add a dummy (delete support swaps a real key for a dummy)."""
        if key in self._stored_ts:
            raise KeyError(f"dummy already tracked: {key}")
        self._stored_ts[key] = ts
        self._tree.insert(key, (ts, self._rng.random(), key))
