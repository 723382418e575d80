"""Tests for the datastore facade: padding, batch API, inserts/deletes."""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import (ROUND_ANSWER, WaffleDatastore, pad_value,
                                  unpad_value)
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError, ProtocolError
from repro.obs import capture
from repro.storage.redis_sim import RedisSim
from repro.storage import PassthroughStore
from repro.workloads.trace import Operation
from tests.conftest import make_items


class TestPadding:
    def test_roundtrip(self):
        assert unpad_value(pad_value(b"hello", 64)) == b"hello"

    def test_padded_length_exact(self):
        assert len(pad_value(b"x", 128)) == 128
        assert len(pad_value(b"", 128)) == 128

    def test_oversize_rejected(self):
        with pytest.raises(ConfigurationError):
            pad_value(b"x" * 61, 64)

    def test_boundary_size(self):
        value = b"x" * 60
        assert unpad_value(pad_value(value, 64)) == value

    @given(st.binary(max_size=60))
    def test_roundtrip_any_bytes(self, value):
        assert unpad_value(pad_value(value, 64)) == value

    @given(st.binary(max_size=60), st.binary(max_size=60))
    def test_padded_values_equal_length(self, a, b):
        assert len(pad_value(a, 64)) == len(pad_value(b, 64))


class TestBatchApi:
    def test_values_unpadded_in_responses(self, small_datastore):
        responses = small_datastore.execute_batch(
            [ClientRequest(op=Operation.READ, key="user00000003")]
        )
        assert responses[0].value == b"value-3"

    def test_write_then_read(self, small_datastore):
        small_datastore.execute_batch([
            ClientRequest(op=Operation.WRITE, key="user00000003", value=b"V2"),
        ])
        responses = small_datastore.execute_batch([
            ClientRequest(op=Operation.READ, key="user00000003"),
        ])
        assert responses[0].value == b"V2"

    def test_responses_aligned_with_requests(self, small_datastore):
        batch = [
            ClientRequest(op=Operation.READ, key="user00000001"),
            ClientRequest(op=Operation.WRITE, key="user00000002", value=b"x"),
            ClientRequest(op=Operation.READ, key="user00000001"),
        ]
        responses = small_datastore.execute_batch(batch)
        assert [r.request_id for r in responses] == \
               [r.request_id for r in batch]
        assert responses[0].value == b"value-1"
        assert responses[1].value == b"x"

    def test_the_proxy_responses_are_unpadded_in_place(self,
                                                      small_datastore):
        """``ClientResponse`` is mutable: ``handle_batch`` answers padded
        values, and ``execute_batch`` returns the proxy's own list with
        each value unpadded in place."""
        proxy = small_datastore.proxy
        request = ClientRequest(op=Operation.READ, key="user00000003")
        direct = proxy.handle_batch([request])
        assert direct[0].value == pad_value(
            b"value-3", small_datastore.config.value_size)
        handed = []
        handle = proxy.handle_batch

        def spy(requests, *args):
            handed.append(handle(requests, *args))
            return handed[-1]

        proxy.handle_batch = spy
        responses = small_datastore.execute_batch([request])
        assert responses is handed[0]
        assert responses[0].value == b"value-3"


class _CommitLog(PassthroughStore):
    def __init__(self, inner, events):
        super().__init__(inner)
        self.events = events

    def commit_round(self, deletes, puts):
        self.events.append("commit")
        self._inner.commit_round(deletes, puts)


class TestAnswerBeforeWriteBack:
    @pytest.mark.parametrize("observed", [False, True])
    def test_answer_precedes_the_commit(self, small_datastore, observed):
        """The ``ROUND_ANSWER`` callback gets every unpadded response
        before the round's commit is handed over, and the list it gets is
        the one returned."""
        events = []
        small_datastore.proxy.store = _CommitLog(small_datastore.proxy.store,
                                                 events)
        batch = [ClientRequest(op=Operation.READ, key="user00000001"),
                 ClientRequest(op=Operation.WRITE, key="user00000002",
                               value=b"x")]
        token = ROUND_ANSWER.set(events.append)
        try:
            with capture() if observed else contextlib.nullcontext():
                responses = small_datastore.execute_batch(batch)
        finally:
            ROUND_ANSWER.reset(token)
        assert events == [responses, "commit"]
        assert events[0] is responses
        assert [r.value for r in responses] == [b"value-1", b"x"]
        small_datastore.proxy.check_invariants()


class TestTheCoinFlipsAreSecret:
    """The proxy's rng — cache seed, load shuffle, dummy names, every
    tie-break — is seeded from its keychain, never from the config."""

    @staticmethod
    def _cache(small_config, small_items, keychain):
        datastore = WaffleDatastore(small_config, small_items,
                                    keychain=keychain)
        return list(datastore.proxy.cache.keys())

    def test_a_shared_config_seed_seeds_nothing(self, small_config,
                                                small_items):
        assert small_config.seed is not None
        assert self._cache(small_config, small_items, KeyChain()) != \
            self._cache(small_config, small_items, KeyChain())

    def test_a_keychain_seed_replays_the_cache(self, small_config,
                                               small_items):
        assert self._cache(small_config, small_items,
                           KeyChain.from_seed(5)) == \
            self._cache(small_config, small_items, KeyChain.from_seed(5))


class TestInsertDelete:
    def make_store(self):
        config = WaffleConfig(n=100, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=3)
        return WaffleDatastore(config, make_items(100),
                               keychain=KeyChain.from_seed(4), log_ids=True)

    def run_idle_round(self, store):
        store.execute_batch([])

    def test_insert_becomes_readable(self):
        store = self.make_store()
        store.insert("newcomer0000", b"fresh")
        self.run_idle_round(store)  # the round that consumes the mutation
        responses = store.execute_batch([
            ClientRequest(op=Operation.READ, key="newcomer0000"),
        ])
        assert responses[0].value == b"fresh"

    def test_a_refused_batch_keeps_the_queued_mutations(self):
        """A batch naming an unknown key is refused before its round
        begins: no timestamp, no recorder round, no drained mutation — and
        the next round applies the queued insert and delete."""
        store = self.make_store()
        store.insert("newcomer0000", b"fresh")
        store.delete("user00000005")
        records = len(store.recorder.records)
        with pytest.raises(ProtocolError, match="unknown key"):
            store.execute_batch(
                [ClientRequest(op=Operation.READ, key="stranger")])
        mutations = store.proxy.mutations
        assert (store.proxy.ts, store.recorder.round) == (0, 0)
        assert (mutations.pending_inserts, mutations.pending_deletes) == (1, 1)
        assert len(store.recorder.records) == records
        assert store.proxy.failure is None
        self.run_idle_round(store)
        assert store.proxy.contains_key("newcomer0000")
        assert not store.proxy.contains_key("user00000005")
        store.proxy.check_invariants()

    def test_insert_swaps_dummy_counts(self):
        store = self.make_store()
        d_before = store.proxy.dummy_count
        n_before = store.proxy.real_count
        store.insert("newcomer0000", b"fresh")
        self.run_idle_round(store)
        assert store.proxy.dummy_count == d_before - 1
        assert store.proxy.real_count == n_before + 1

    def test_insert_existing_key_rejected(self):
        store = self.make_store()
        with pytest.raises(ConfigurationError):
            store.insert("user00000001", b"dup")

    def test_insert_of_a_dummy_named_key_rejected(self):
        """Such a key would derive a dummy's storage ids: once evicted, its
        object would be fetched back as a dummy and never decrypted, and
        the value lost."""
        store = self.make_store()
        with pytest.raises(ConfigurationError, match="dummy prefix"):
            store.insert("\x00dummy:999999999999", b"lost")
        assert store.proxy.mutations.pending_inserts == 0

    def test_delete_removes_key(self):
        store = self.make_store()
        store.delete("user00000005")
        self.run_idle_round(store)
        assert not store.proxy.contains_key("user00000005")

    def test_delete_swaps_in_dummy(self):
        store = self.make_store()
        d_before = store.proxy.dummy_count
        store.delete("user00000005")
        self.run_idle_round(store)
        assert store.proxy.dummy_count == d_before + 1

    def test_delete_unknown_key_rejected(self):
        store = self.make_store()
        with pytest.raises(KeyNotFoundError):
            store.delete("ghost")

    def test_batch_shape_preserved_across_mutations(self):
        """Insert/delete rounds still read exactly B and write exactly B."""
        store = self.make_store()
        config = store.config
        for i in range(4):
            store.insert(f"extra{i:07d}", b"v")
        for i in range(4):
            store.delete(f"user{i:08d}")
        for _ in range(6):
            self.run_idle_round(store)
        for stats in store.proxy.totals.stats_by_round:
            assert stats.server_reads == config.b
            assert stats.server_writes == config.b

    def test_storage_invariants_across_mutations(self):
        from repro.analysis import Adversary
        store = self.make_store()
        for i in range(3):
            store.insert(f"extra{i:07d}", b"v")
        store.delete("user00000009")
        for _ in range(10):
            self.run_idle_round(store)
        Adversary().feed(store.recorder.records).check_lifecycle()

    def test_insert_without_dummies_rejected(self):
        config = WaffleConfig(n=50, b=10, r=4, f_d=0, d=0, c=10,
                              value_size=64, seed=5)
        store = WaffleDatastore(config, make_items(50))
        with pytest.raises(ConfigurationError):
            store.insert("x" * 8, b"v")

    def test_server_size_property(self):
        store = self.make_store()
        assert store.server_size == (store.config.n - store.config.c
                                     + store.config.d)


class _Sink(RedisSim):
    """A server that counts what a load hands it and keeps none of it."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def multi_put(self, items):
        for _ in items:
            self.count += 1


class TestTheLoadIsAStream:
    """Set-up holds the caller's items, the cache seed and a chunk of the
    load — not a padded copy of the dataset, a sealed copy and a list of
    both (set-up once peaked above ``2 * N * value_size`` here), nor the D
    dummy payloads: a dummy's server copy is noise, made a chunk at a
    time.  D is large enough that ``D * value_size`` alone is above the
    ceiling."""

    N, D, C, VALUE_SIZE = 4096, 2560, 64, 1024

    def peak_of_set_up(self, record):
        import tracemalloc

        from repro.core.proxy import _LOAD_CHUNK

        config = WaffleConfig(n=self.N, b=16, r=6, f_d=4, d=self.D, c=self.C,
                              value_size=self.VALUE_SIZE, seed=5)
        items = {f"user{i:08d}": bytes([i % 251]) * (self.VALUE_SIZE - 4)
                 for i in range(self.N)}
        sink = _Sink()
        tracemalloc.start()
        try:
            WaffleDatastore(config, items, store=sink, record=record,
                            keychain=KeyChain.from_seed(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.count == self.N + self.D - self.C
        held = (self.C + 4 * _LOAD_CHUNK) * self.VALUE_SIZE + 2**20
        return peak, min(held, self.N * self.VALUE_SIZE // 2)

    def test_set_up_memory_does_not_grow_with_the_dataset(self):
        peak, ceiling = self.peak_of_set_up(record=False)
        assert peak < ceiling

    def test_nor_under_the_recorder(self):
        """The trace is the recorder's product and grows with the load
        (an id and an ``AccessRecord`` a write); the load itself still
        passes through."""
        peak, ceiling = self.peak_of_set_up(record=True)
        assert peak < ceiling + 256 * (self.N + self.D - self.C)
