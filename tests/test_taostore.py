"""Tests for the TaoStore baseline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.taostore import TaoStore
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation, TraceRequest


def build(n=64, seed=1, store=None, **kwargs):
    items = {f"user{i:08d}": b"val-%d" % i for i in range(n)}
    store = store if store is not None else RedisSim()
    tao = TaoStore(dict(items), store, seed=seed,
                   keychain=KeyChain.from_seed(seed), **kwargs)
    return tao, items


class TestCorrectness:
    def test_get_initial_values(self):
        tao, items = build()
        for key in list(items)[:10]:
            assert tao.get(key) == items[key]

    def test_put_then_get(self):
        tao, _ = build()
        tao.put("user00000003", b"NEW")
        assert tao.get("user00000003") == b"NEW"

    def test_missing_key_raises(self):
        tao, _ = build()
        with pytest.raises(KeyNotFoundError):
            tao.get("ghost")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            TaoStore({}, RedisSim())

    def test_invalid_threshold(self):
        items = {"a": b"1"}
        with pytest.raises(ConfigurationError):
            TaoStore(items, RedisSim(), write_back_threshold=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31))
    def test_random_history_matches_reference(self, seed):
        tao, items = build(n=32, seed=seed)
        reference = dict(items)
        rng = random.Random(seed)
        keys = list(items)
        for step in range(120):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < 0.5:
                assert tao.get(key) == reference[key]
            else:
                value = b"w%d" % step
                tao.put(key, value)
                reference[key] = value


class TestConcurrency:
    def test_sequencer_preserves_order(self):
        """Queued requests resolve in submission order: a read after a
        write to the same key sees the written value."""
        tao, _ = build(seed=2)
        write_slot = tao.submit(
            TraceRequest(Operation.WRITE, "user00000001", b"FIRST"))
        read_slot = tao.submit(TraceRequest(Operation.READ, "user00000001"))
        tao.drain()
        assert write_slot[0] == b"FIRST"
        assert read_slot[0] == b"FIRST"

    def test_concurrent_duplicate_requests_fake_read(self):
        """Two in-flight requests for one key trigger a fake path read for
        the second — the adversary still sees one path per request."""
        tao, _ = build(seed=3, write_back_threshold=10)
        tao.submit(TraceRequest(Operation.READ, "user00000005"))
        tao.submit(TraceRequest(Operation.READ, "user00000005"))
        tao.drain()
        assert tao.stats.fake_reads >= 1

    def test_flush_fires_at_threshold(self):
        tao, items = build(seed=4, write_back_threshold=5)
        keys = list(items)
        for key in keys[:5]:
            tao.get(key)
        assert tao.stats.flushes >= 1

    def test_writes_survive_flush_cycles(self):
        tao, items = build(seed=5, write_back_threshold=3)
        keys = list(items)[:10]
        for key in keys:
            tao.put(key, b"V-" + key.encode())
        rng = random.Random(6)
        for _ in range(30):
            tao.get(keys[rng.randrange(len(keys))])
        for key in keys:
            assert tao.get(key) == b"V-" + key.encode()


class TestObliviousness:
    def test_every_request_reads_a_path(self):
        recorder = RecordingStore(RedisSim())
        tao, _ = build(n=64, seed=7, store=recorder,
                       write_back_threshold=4)
        before = tao.stats.buckets_read
        tao.get("user00000002")
        # First fetch of a cold subtree reads a full path.
        assert tao.stats.buckets_read - before == tao.levels

    def test_position_remap_on_access(self):
        tao, _ = build(seed=8)
        positions = set()
        for _ in range(30):
            tao.get("user00000009")
            positions.add(tao.position["user00000009"])
        assert len(positions) > 5
