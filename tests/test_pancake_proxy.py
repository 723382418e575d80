"""Tests for the Pancake proxy."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.baselines.pancake import PancakeProxy
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.storage import PassthroughStore
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation, TraceRequest


def zipf_pi(n: int, theta: float = 0.99) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float) ** (-theta)
    return weights / weights.sum()


def build(n=50, batch_size=20, seed=1, store=None, theta=0.99):
    keys = [f"user{i:08d}" for i in range(n)]
    items = {key: b"val-%d" % i for i, key in enumerate(keys)}
    store = store if store is not None else RedisSim()
    proxy = PancakeProxy(keys, items, zipf_pi(n, theta), store,
                         batch_size=batch_size, seed=seed,
                         keychain=KeyChain.from_seed(seed))
    return proxy, keys, items


class TestCorrectness:
    def test_read_returns_value(self):
        proxy, keys, items = build()
        assert proxy.execute(TraceRequest(Operation.READ, keys[3])) == \
            items[keys[3]]

    def test_write_then_read(self):
        proxy, keys, _ = build()
        proxy.execute(TraceRequest(Operation.WRITE, keys[3], b"NEW"))
        assert proxy.execute(TraceRequest(Operation.READ, keys[3])) == b"NEW"

    def test_linearizable_random_history(self):
        proxy, keys, items = build(n=30, batch_size=10, seed=2)
        reference = dict(items)
        rng = random.Random(3)
        for step in range(400):
            key = keys[rng.randrange(30)]
            if rng.random() < 0.5:
                value = proxy.execute(TraceRequest(Operation.READ, key))
                assert value == reference[key], step
            else:
                value = b"w%d" % step
                proxy.execute(TraceRequest(Operation.WRITE, key, value))
                reference[key] = value

    def test_update_propagates_through_replicas(self):
        """The updateCache eventually rewrites every replica; reads keep
        returning the newest value throughout."""
        proxy, keys, _ = build(n=20, batch_size=10, seed=4)
        hot = keys[0]  # most replicas under Zipf
        proxy.execute(TraceRequest(Operation.WRITE, hot, b"FINAL"))
        for _ in range(200):
            proxy.process_batch()
        assert proxy.execute(TraceRequest(Operation.READ, hot)) == b"FINAL"

    def test_unknown_key_rejected(self):
        proxy, _, _ = build()
        with pytest.raises(KeyNotFoundError):
            proxy.submit(TraceRequest(Operation.READ, "ghost"))
        assert proxy.pending() == 0

    def test_unknown_key_does_not_drop_a_queued_neighbour(self):
        """A refused request never reaches a batch, so the real request
        queued before it is still answered."""
        proxy, keys, items = build()
        result = proxy.submit(TraceRequest(Operation.READ, keys[1]))
        with pytest.raises(KeyNotFoundError):
            proxy.submit(TraceRequest(Operation.READ, "ghost"))
        while proxy.pending():
            proxy.process_batch()
        assert result == [items[keys[1]]]

    def test_invalid_construction(self):
        keys = ["a", "b"]
        items = {"a": b"1", "b": b"2"}
        with pytest.raises(ConfigurationError):
            PancakeProxy(keys, items, [0.5, 0.5], RedisSim(), batch_size=0)
        with pytest.raises(ConfigurationError):
            PancakeProxy(keys, items, [0.5, 0.5], RedisSim(), delta=1.5)
        with pytest.raises(ConfigurationError):
            PancakeProxy(["a"], items, [1.0], RedisSim())


class TestSmoothingBehaviour:
    def test_server_frequency_smoothed_under_assumed_distribution(self):
        """When queries follow the assumed π, per-replica access counts on
        the server are near-uniform (Pancake's core guarantee); when they
        follow the inverted π, the same layout is measurably skewed (the
        offline-obliviousness limitation, DESIGN §4 invariant 6)."""
        n = 30
        pi = zipf_pi(n)

        def replica_cv(query_pi: np.ndarray) -> float:
            recorder = RecordingStore(RedisSim())
            proxy, keys, _ = build(n=n, batch_size=10, seed=5,
                                   store=recorder)
            rng = np.random.default_rng(6)
            for index in rng.choice(n, size=4000, p=query_pi):
                proxy.submit(TraceRequest(Operation.READ, keys[int(index)]))
            while proxy.pending():
                proxy.process_batch()
            counts = Counter(r.storage_id for r in recorder.records
                             if r.op == "read")
            values = np.array(list(counts.values()), dtype=float)
            return float(values.std() / values.mean())

        # Coefficient of variation stays small for a smoothed store
        # (measured 0.08) and is large once π is wrong (measured 0.93).
        assert replica_cv(pi) < 0.35
        assert replica_cv(pi[::-1]) > 0.7

    def test_static_ids_repeat(self):
        """Pancake ids are static — the property Waffle removes."""
        recorder = RecordingStore(RedisSim())
        proxy, keys, _ = build(n=20, batch_size=10, seed=7, store=recorder)
        for _ in range(100):
            proxy.execute(TraceRequest(Operation.READ, keys[0]))
        reads = Counter(r.storage_id for r in recorder.records
                        if r.op == "read")
        assert reads.most_common(1)[0][1] > 1

    def test_update_cache_grows_under_write_burst(self):
        """The Θ(N) updateCache limitation: writing many cold keys parks
        one pending update per key."""
        n = 60
        proxy, keys, _ = build(n=n, batch_size=10, seed=8, theta=1.2)
        multi_replica = [
            key for i, key in enumerate(keys)
            if proxy.smoothing.replica_count(i) > 1
        ]
        for key in multi_replica:
            proxy.submit(TraceRequest(Operation.WRITE, key, b"new"))
        while proxy.pending():
            proxy.process_batch()
        assert proxy.stats.max_update_cache >= max(1, len(multi_replica) // 2)

    def test_batch_reads_equal_writes(self):
        proxy, keys, _ = build(n=20, batch_size=15, seed=9)
        proxy.submit(TraceRequest(Operation.READ, keys[0]))
        proxy.process_batch()
        assert proxy.stats.server_reads == proxy.stats.server_writes


class TestRounds:
    def test_a_recorder_behind_a_wrapper_counts_every_batch(self):
        """The round boundary reaches the recorder through whatever is
        stacked above it: k batches record rounds 1..k, in order, after
        the load's round 0."""
        recorder = RecordingStore(RedisSim())
        proxy, _, _ = build(n=20, batch_size=10, seed=10,
                            store=PassthroughStore(recorder))
        loaded = len(recorder.records)
        for _ in range(4):
            proxy.process_batch()
        rounds = [r.round for r in recorder.records]
        assert set(rounds[:loaded]) == {0}
        assert sorted(set(rounds[loaded:])) == [1, 2, 3, 4]
        assert rounds[loaded:] == sorted(rounds[loaded:])
