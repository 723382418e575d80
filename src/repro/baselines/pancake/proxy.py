"""Pancake's trusted proxy.

Per batch of ``B`` slots the proxy:

1. fills each slot with a δ=1/2 coin — a queued real client request
   (uniformly chosen replica of the requested key) or a fake query drawn
   from the smoothed complementary distribution;
2. reads the ``B`` (static) storage ids in one pipelined round trip;
3. re-encrypts and writes back every accessed replica — reads and writes
   are indistinguishable, and the write-back is where pending updates
   propagate;
4. maintains the ``updateCache``: a write to key ``k`` cannot update all
   ``R(k)`` replicas at once (only accessed replicas may be touched), so
   the newest value parks in the cache until every replica has been
   rewritten.  This is the data structure the paper criticizes for
   growing to Θ(N).

Storage ids are static (``prf(k‖j)``), so Pancake hides *frequencies*,
not *sequences* — the correlated-query attack in
:mod:`repro.analysis.attacks` exploits exactly this.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from numpy.typing import ArrayLike

from repro.baselines.pancake.smoothing import SmoothedDistribution
from repro.obs import OBS
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.seeding import seeded_rng
from repro.storage.base import StorageBackend
from repro.workloads.trace import Operation, TraceRequest

__all__ = ["PancakeProxy", "PancakeStats"]

_DUMMY_KEY = "\x00pancake-dummy"


@dataclass(slots=True)
class PancakeStats:
    """Lifetime operation counts for the cost model."""

    batches: int = 0
    real_slots: int = 0
    fake_slots: int = 0
    server_reads: int = 0
    server_writes: int = 0
    prf_evals: int = 0
    decryptions: int = 0
    encryptions: int = 0
    update_cache_ops: int = 0
    fake_samples: int = 0
    max_update_cache: int = 0


class PancakeProxy:
    """Frequency-smoothing proxy over an assumed distribution.

    Parameters
    ----------
    keys:
        The n plaintext keys, index-aligned with ``assumed_pi``.
    items:
        Initial values per key.
    assumed_pi:
        The distribution Pancake believes client queries follow.  Security
        holds only while reality matches it (offline obliviousness).
    store:
        Untrusted server (plain mode — Pancake overwrites replicas in
        place).
    batch_size:
        Slots per server batch.  The paper measured Pancake's effective
        batch at ~2500 slots with δ=1/2 (§8.1).
    """

    def __init__(self, keys: list[str], items: dict[str, bytes],
                 assumed_pi: ArrayLike, store: StorageBackend,
                 batch_size: int = 2500, delta: float = 0.5,
                 keychain: KeyChain | None = None,
                 seed: int | None = None) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if not 0 < delta < 1:
            raise ConfigurationError("delta must lie strictly in (0, 1)")
        if set(keys) != set(items):
            raise ConfigurationError("keys and items must align")
        self.keys = list(keys)
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        self.smoothing = SmoothedDistribution(assumed_pi, seed=seed)
        if self.smoothing.n != len(self.keys):
            raise ConfigurationError("assumed_pi length must equal len(keys)")
        self.store = store
        self.batch_size = batch_size
        self.delta = delta
        self.keychain = keychain if keychain is not None else KeyChain()
        self._rng = seeded_rng(seed)
        self.stats = PancakeStats()
        #: key -> (value, set of replica indices still stale)
        self.update_cache: dict[str, tuple[bytes, set[int]]] = {}
        self._queue: deque[tuple[TraceRequest, list]] = deque()
        self._initialize(items)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _replica_id(self, key_index: int, replica: int) -> str:
        if key_index < 0:
            return self.keychain.prf.derive(f"{_DUMMY_KEY}:{replica}", 0)
        return self.keychain.prf.derive(f"{self.keys[key_index]}:{replica}", 0)

    def _initialize(self, items: dict[str, bytes]) -> None:
        load = []
        for key_index, key in enumerate(self.keys):
            for replica in range(self.smoothing.replica_count(key_index)):
                load.append((
                    self._replica_id(key_index, replica),
                    self.keychain.cipher.encrypt(items[key]),
                ))
        for replica in range(self.smoothing.dummy_replicas):
            load.append((
                self._replica_id(-1, replica),
                self.keychain.cipher.encrypt(b"\x00"),
            ))
        self._rng.shuffle(load)
        self.store.multi_put(load)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, request: TraceRequest) -> list:
        """Queue one client request; returns a single-slot result list
        that is filled in when the request is served by a batch.  An
        unknown key is refused here, before it can take a batch slot."""
        if request.key not in self.key_index:
            raise KeyNotFoundError(request.key)
        result: list = []
        self._queue.append((request, result))
        return result

    def pending(self) -> int:
        return len(self._queue)

    def process_batch(self) -> int:
        """Fill and execute one B-slot batch; returns real requests served."""
        stats = self.stats
        self.store.next_round()
        obs = OBS
        observing = obs.enabled
        if observing:
            _t0 = time.perf_counter()

        # Slot selection: the delta coin per slot.
        slots: list[tuple[int, int, TraceRequest | None, list | None]] = []
        for _ in range(self.batch_size):
            take_real = self._queue and self._rng.random() < self.delta
            if take_real:
                request, result = self._queue.popleft()
                key_index = self.key_index[request.key]
                replica = self.smoothing.pick_replica(key_index)
                slots.append((key_index, replica, request, result))
                stats.real_slots += 1
            else:
                key_index, replica = self.smoothing.sample_fake()
                slots.append((key_index, replica, None, None))
                stats.fake_slots += 1
                stats.fake_samples += 1

        # One pipelined read of all slot ids (duplicates read once).
        sids = [self._replica_id(k, j) for k, j, _, _ in slots]
        stats.prf_evals += len(sids)
        unique_sids = list(dict.fromkeys(sids))
        blobs = dict(zip(unique_sids, self.store.multi_get(unique_sids)))
        stats.server_reads += len(unique_sids)

        # Decrypt each fetched replica once; slots then read/modify the
        # plaintext view so same-batch read-after-write is linearizable.
        plain = {sid: self.keychain.cipher.decrypt(blob)
                 for sid, blob in blobs.items()}
        stats.decryptions += len(plain)

        for (key_index, replica, request, result), sid in zip(slots, sids):
            value = plain[sid]
            key = self.keys[key_index] if key_index >= 0 else None

            if key is not None and key in self.update_cache:
                newest, stale = self.update_cache[key]
                value = newest
                stale.discard(replica)
                stats.update_cache_ops += 1
                if not stale:
                    del self.update_cache[key]

            if request is not None:
                if request.op is Operation.WRITE:
                    value = request.value
                    stale = set(range(self.smoothing.replica_count(key_index)))
                    stale.discard(replica)
                    if stale:
                        self.update_cache[key] = (value, stale)
                    else:
                        self.update_cache.pop(key, None)
                    stats.update_cache_ops += 1
                    result.append(value)
                else:
                    result.append(value)

            plain[sid] = value

        write_back = {
            sid: self.keychain.cipher.encrypt(value)
            for sid, value in plain.items()
        }
        stats.encryptions += len(write_back)
        self.store.multi_put(write_back.items())
        stats.server_writes += len(write_back)
        stats.batches += 1
        stats.max_update_cache = max(stats.max_update_cache, len(self.update_cache))
        served = sum(1 for _, _, request, _ in slots if request is not None)
        if observing:
            labels = {"system": "pancake"}
            reg = obs.registry
            fake = self.batch_size - served
            reg.counter("rounds.total", **labels).inc()
            reg.counter("requests.total", **labels).inc(served)
            reg.counter("server.reads.total", **labels).inc(len(unique_sids))
            reg.counter("server.writes.total", **labels).inc(len(write_back))
            reg.counter("batch.real.total", **labels).inc(served)
            reg.counter("batch.fake_dummy.total", **labels).inc(fake)
            reg.gauge("cache.size", **labels).set(len(self.update_cache))
            obs.observe_span("round", time.perf_counter() - _t0,
                             labels=labels, round=stats.batches,
                             requests=served, real=served, fake_dummy=fake)
        return served

    # ------------------------------------------------------------------
    # convenience synchronous API
    # ------------------------------------------------------------------
    def execute(self, request: TraceRequest) -> bytes:
        """Submit one request and run batches until it is answered."""
        result = self.submit(request)
        while not result:
            self.process_batch()
        return result[0]
