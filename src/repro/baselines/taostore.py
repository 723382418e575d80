"""TaoStore (Sahin et al., S&P 2016) — a concurrent tree-ORAM datastore.

TaoStore serves *asynchronous, concurrent* clients over a tree ORAM:

* a **sequencer** assigns a global order to incoming requests and ensures
  responses respect it (linearizability);
* the **processor** fetches the requested block's path; concurrent
  requests for a key whose path is already in flight trigger a *fake
  read* (a random path) so the adversary still sees one path per request;
* fetched paths are held in an in-memory **subtree**; responses are
  answered from it immediately, decoupling response time from write-back;
* every ``k`` completed accesses (the write-back threshold), the subtree
  is flushed: blocks are re-assigned fresh leaves and the dirty paths are
  written back re-encrypted.

This reproduction keeps the same structure in a single-threaded event
style: ``submit`` enqueues, ``drain`` processes in sequence order, and the
flush happens every ``write_back_threshold`` accesses — the adversary's
view (one path read per request, batched path write-backs) and the cost
profile (Θ(log N) buckets moved per request) match the original system.
The 102x throughput gap to Waffle (§8.1) stems from exactly this profile:
every request pays its own path fetch; nothing amortizes across clients.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from repro.crypto.keys import KeyChain
from repro.obs import OBS
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.seeding import seeded_rng
from repro.storage.base import StorageBackend
from repro.workloads.trace import Operation, TraceRequest

__all__ = ["TaoStore", "TaoStoreStats"]


@dataclass(slots=True)
class TaoStoreStats:
    accesses: int = 0
    fake_reads: int = 0
    buckets_read: int = 0
    buckets_written: int = 0
    flushes: int = 0
    max_subtree: int = 0


class TaoStore:
    """Concurrent ORAM datastore with sequencer and deferred write-back.

    Parameters
    ----------
    items:
        Initial dataset (defines N).
    store:
        Untrusted server.
    write_back_threshold:
        Flush the subtree after this many accesses (TaoStore's ``k``).
    """

    #: Z, blocks per bucket.
    z = 4

    def __init__(self, items: dict[str, bytes], store: StorageBackend,
                 write_back_threshold: int = 8,
                 keychain: KeyChain | None = None, seed: int | None = None) -> None:
        if not items:
            raise ConfigurationError("TaoStore needs a non-empty dataset")
        if write_back_threshold < 1:
            raise ConfigurationError("write-back threshold must be positive")
        self.n = len(items)
        self.levels = max(1, math.ceil(math.log2(max(2, self.n)))) + 1
        self.leaves = 2 ** (self.levels - 1)
        self.store = store
        self.keychain = keychain if keychain is not None else KeyChain()
        self._rng = seeded_rng(seed)
        self.write_back_threshold = write_back_threshold
        self.stats = TaoStoreStats()

        self.position: dict[str, int] = {}
        #: The in-memory subtree: node -> list of blocks; None = not fetched.
        self._subtree: dict[int, list[tuple[str, int, bytes]]] = {}
        #: Blocks lifted out of fetched buckets, keyed by name.
        self._pending_blocks: dict[str, bytes] = {}
        self._sequencer: deque[tuple[int, TraceRequest, list]] = deque()
        self._sequence = 0
        self._since_flush = 0
        self._in_flight: set[str] = set()

        empty = self._encode_bucket([])
        self.store.multi_put(
            (self._node_id(node), empty) for node in range(1, 2 ** self.levels)
        )
        # Bulk initial placement, then one full flush.
        for key, value in items.items():
            self.position[key] = self._rng.randrange(self.leaves)
            self._pending_blocks[key] = value
        self._flush(initial=True)
        self.stats = TaoStoreStats()

    # ------------------------------------------------------------------
    # encoding helpers
    # ------------------------------------------------------------------
    def _node_id(self, node: int) -> str:
        return f"tao:node:{node:08d}"

    def _path_nodes(self, leaf: int) -> list[int]:
        node = self.leaves + leaf
        path = []
        while node >= 1:
            path.append(node)
            node //= 2
        path.reverse()
        return path

    def _encode_bucket(self, blocks: list[tuple[str, int, bytes]]) -> bytes:
        parts = []
        for key, leaf, value in blocks:
            kb = key.encode("utf-8")
            parts.append(len(kb).to_bytes(2, "big") + kb
                         + leaf.to_bytes(4, "big")
                         + len(value).to_bytes(4, "big") + value)
        return self.keychain.cipher.encrypt(b"".join(parts))

    def _decode_bucket(self, blob: bytes) -> list[tuple[str, int, bytes]]:
        raw = self.keychain.cipher.decrypt(blob)
        blocks = []
        cursor = 0
        while cursor < len(raw):
            klen = int.from_bytes(raw[cursor:cursor + 2], "big")
            cursor += 2
            key = raw[cursor:cursor + klen].decode("utf-8")
            cursor += klen
            leaf = int.from_bytes(raw[cursor:cursor + 4], "big")
            cursor += 4
            vlen = int.from_bytes(raw[cursor:cursor + 4], "big")
            cursor += 4
            blocks.append((key, leaf, raw[cursor:cursor + vlen]))
            cursor += vlen
        return blocks

    # ------------------------------------------------------------------
    # client interface
    # ------------------------------------------------------------------
    def submit(self, request: TraceRequest) -> list:
        """Sequencer entry point: enqueue a request, return its result slot."""
        if request.key not in self.position:
            raise KeyNotFoundError(request.key)
        result: list = []
        self._sequence += 1
        self._sequencer.append((self._sequence, request, result))
        return result

    def drain(self) -> int:
        """Process every queued request in sequence order."""
        served = 0
        while self._sequencer:
            _, request, result = self._sequencer.popleft()
            result.append(self._process(request))
            served += 1
        return served

    def execute(self, request: TraceRequest) -> bytes:
        result = self.submit(request)
        self.drain()
        return result[0]

    def get(self, key: str) -> bytes:
        return self.execute(TraceRequest(Operation.READ, key))

    def put(self, key: str, value: bytes) -> None:
        self.execute(TraceRequest(Operation.WRITE, key, value))

    # ------------------------------------------------------------------
    # processor
    # ------------------------------------------------------------------
    def _process(self, request: TraceRequest) -> bytes:
        key = request.key
        obs = OBS
        observing = obs.enabled
        if observing:
            _t0 = time.perf_counter()
            _reads0 = self.stats.buckets_read
            _writes0 = self.stats.buckets_written
            _fakes0 = self.stats.fake_reads
        if key in self._pending_blocks or key in self._in_flight:
            # The block is already client-side; issue a fake read of a
            # random path so the adversary still observes one path fetch.
            self._fetch_path(self._rng.randrange(self.leaves))
            self.stats.fake_reads += 1
        else:
            self._fetch_path(self.position[key])
            self._in_flight.add(key)
        if key not in self._pending_blocks:  # pragma: no cover - defensive
            raise KeyNotFoundError(key)

        # Fresh leaf on every access, so a block's path is never static.
        self.position[key] = self._rng.randrange(self.leaves)
        if request.op is Operation.WRITE:
            self._pending_blocks[key] = request.value
        value = self._pending_blocks[key]

        self.stats.accesses += 1
        self._since_flush += 1
        self.stats.max_subtree = max(self.stats.max_subtree, len(self._subtree))
        if self._since_flush >= self.write_back_threshold:
            self._flush()
        if observing:
            # One sequenced access = one "round"; the flush (if it fired)
            # is inside the span, matching how clients experience it.
            labels = {"system": "taostore"}
            reg = obs.registry
            reg.counter("rounds.total", **labels).inc()
            reg.counter("requests.total", **labels).inc()
            reg.counter("batch.real.total", **labels).inc()
            reg.counter("batch.fake_dummy.total", **labels).inc(
                self.stats.fake_reads - _fakes0)
            reg.counter("server.reads.total", **labels).inc(
                self.stats.buckets_read - _reads0)
            reg.counter("server.writes.total", **labels).inc(
                self.stats.buckets_written - _writes0)
            reg.gauge("cache.size", **labels).set(len(self._pending_blocks))
            obs.observe_span("round", time.perf_counter() - _t0,
                             labels=labels, round=self.stats.accesses,
                             requests=1, real=1,
                             fake_reads=self.stats.fake_reads - _fakes0)
        return value

    def _fetch_path(self, leaf: int) -> None:
        nodes = self._path_nodes(leaf)
        missing = [node for node in nodes if node not in self._subtree]
        if missing:
            blobs = self.store.multi_get([self._node_id(n) for n in missing])
            self.stats.buckets_read += len(missing)
            for node, blob in zip(missing, blobs):
                blocks = self._decode_bucket(blob)
                self._subtree[node] = []
                for block_key, _, value in blocks:
                    self._pending_blocks.setdefault(block_key, value)

    def _flush(self, initial: bool = False) -> None:
        """Write every pending block back along fresh greedy placements.

        Blocks that do not fit into the currently-held subtree nodes of
        their assigned path stay pending (TaoStore's stash); on the next
        flush they try again.  The initial flush materializes the whole
        tree.
        """
        if initial:
            nodes = set(range(1, 2 ** self.levels))
        else:
            nodes = set(self._subtree)
            if not nodes and not self._pending_blocks:
                return
        occupancy: dict[int, list[tuple[str, int, bytes]]] = {
            node: [] for node in sorted(nodes)
        }
        still_pending: dict[str, bytes] = {}
        for key, value in self._pending_blocks.items():
            leaf = self.position[key]
            placed = False
            for node in reversed(self._path_nodes(leaf)):
                if node in occupancy and len(occupancy[node]) < self.z:
                    occupancy[node].append((key, leaf, value))
                    placed = True
                    break
            if not placed:
                still_pending[key] = value
        writes = [
            (self._node_id(node), self._encode_bucket(blocks))
            for node, blocks in occupancy.items()
        ]
        self.store.multi_put(writes)
        self.stats.buckets_written += len(writes)
        self.stats.flushes += 1
        self._pending_blocks = still_pending
        self._subtree = {}
        self._in_flight = set()
        self._since_flush = 0
