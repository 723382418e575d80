"""Bounded least-recently-used cache (Waffle's proxy cache, §4 Challenge 3).

Waffle's cache differs from a classical performance cache in two ways that
the implementation must respect:

* the bound ``C`` is enforced by the *proxy protocol*, not the cache: during
  a batch the cache may transiently hold up to ``C + R`` objects, and the
  write phase evicts back down to ``C`` (Algorithm 1, lines 37-41).  The
  cache therefore exposes an explicit :meth:`evict` instead of evicting
  implicitly on insert;
* eviction order feeds the security bound β (Theorem 7.2), so recency
  updates happen exactly where Algorithm 1 performs them (cache hits in the
  read phase, insertions/updates in the write phase) — reads via
  :meth:`peek` deliberately do *not* touch recency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generic, Iterable, Iterator, TypeVar

__all__ = ["LruCache"]

K = TypeVar("K")
V = TypeVar("V")

#: Internal miss marker distinguishable from any cached value (including
#: ``None``/``b""``); callers may pass their own ``default`` instead.
_MISSING = object()


class LruCache(Generic[K, V]):
    """An LRU map with explicit eviction.

    Parameters
    ----------
    capacity:
        Target capacity ``C``.  :meth:`over_capacity` reports how many
        entries currently exceed it; the owner evicts down explicitly.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: K) -> V:
        """Return the cached value and mark ``key`` most recently used."""
        value = self._entries[key]
        self._entries.move_to_end(key)
        return value

    def get_if_present(self, key: K, default: Any = None) -> Any:
        """Single-lookup :meth:`get`: value (recency bumped) or ``default``.

        Replaces the ``key in cache`` + ``cache.get(key)`` double descent
        on the proxy's read path.  A miss performs exactly one hash lookup
        and never raises; recency is only touched on a hit, so peek-vs-get
        semantics (and hence the β eviction order) are unchanged.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value

    def get_if_present_many(self, keys: Iterable[K],
                            default: Any = None) -> list[Any]:
        """Bulk :meth:`get_if_present`: one result per key, in order.

        Semantically identical to calling :meth:`get_if_present` per key
        — recency bumps happen hit-by-hit in input order, so the LRU
        order (and hence the β eviction order) is unchanged — with the
        dict/``move_to_end`` lookups hoisted out of the probe loop.
        """
        get = self._entries.get
        move = self._entries.move_to_end
        out: list[Any] = []
        append = out.append
        for key in keys:
            value = get(key, _MISSING)
            if value is _MISSING:
                append(default)
            else:
                move(key)
                append(value)
        return out

    def touch_if_present(self, key: K) -> bool:
        """Mark ``key`` most recently used if cached; report whether it was."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def peek(self, key: K) -> V:
        """Return the cached value without touching recency."""
        return self._entries[key]

    def put(self, key: K, value: V) -> None:
        """Insert or update ``key`` and mark it most recently used.

        Never evicts; the owner drains overflow via :meth:`evict`.
        """
        self._entries[key] = value
        self._entries.move_to_end(key)

    def touch(self, key: K) -> None:
        """Mark ``key`` most recently used without changing its value."""
        self._entries.move_to_end(key)

    def evict(self) -> tuple[K, V]:
        """Remove and return the least recently used ``(key, value)`` pair."""
        return self._entries.popitem(last=False)  # KeyError when empty

    def remove(self, key: K) -> V:
        """Remove ``key`` outright and return its value."""
        return self._entries.pop(key)

    def over_capacity(self) -> int:
        """Number of entries beyond the configured capacity."""
        return max(0, len(self._entries) - self.capacity)

    def keys(self) -> Iterator[K]:
        """Keys from least to most recently used."""
        return iter(self._entries)

    def items(self) -> Iterator[tuple[K, V]]:
        """Items from least to most recently used."""
        return iter(self._entries.items())
