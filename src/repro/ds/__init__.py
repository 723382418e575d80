"""Data-structure substrate: the LRU cache Waffle relies on.

§4 (Challenge 3) requires a bounded least-recently-used cache; it is
implemented from scratch here.  The ordered timestamp index of §4
(Challenge 2), a balanced BST in the paper, needs no substrate of its own:
``repro.core.timestamp_index`` builds it from dicts and ``heapq``.
"""

from repro.ds.lru import LruCache

__all__ = ["LruCache"]
