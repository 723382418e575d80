"""Tests for the storage substrate: RedisSim and the recorder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage import RecordingStore, RedisSim
from repro.storage.base import StorageBackend


@pytest.fixture(params=["redis", "redis-tcp"])
def store(request):
    """A fresh RedisSim, in process and as seen through a StorageServer
    (whose commands go through the same backend methods)."""
    from repro.net import RemoteStore, StorageServer

    if request.param == "redis":
        yield RedisSim()
        return
    with StorageServer(RedisSim()) as server, \
            RemoteStore(server.address) as remote:
        yield remote


class TestBackendContract:
    """Behaviour every backend must share."""

    def test_put_get_delete(self, store):
        store.multi_put([("k", b"v")])
        assert store.multi_get(["k"]) == [b"v"]
        assert "k" in store
        assert len(store) == 1
        store.commit_round(["k"], ())
        assert "k" not in store
        assert len(store) == 0

    def test_get_missing_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.multi_get(["missing"])

    def test_delete_missing_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.commit_round(["missing"], ())
            store.flush()  # over TCP the refusal arrives with the ack

    def test_overwrite_allowed_by_default(self, store):
        store.multi_put([("k", b"v1")])
        store.multi_put([("k", b"v2")])
        assert store.multi_get(["k"]) == [b"v2"]

    def test_multi_operations_roundtrip(self, store):
        items = [(f"k{i}", b"v%d" % i) for i in range(20)]
        store.multi_put(items)
        keys = [key for key, _ in items]
        assert store.multi_get(keys) == [value for _, value in items]
        store.commit_round(keys[:10], ())
        assert len(store) == 10


class TestTheBatchedCallsAreTheContract:
    def test_a_backend_without_commit_round_cannot_be_built(self):
        """No inherited delete-then-put: a backend states its own atomic
        round commit or it is not a backend."""

        class NoRoundCommit(StorageBackend):
            # Everything RedisSim states, except the round commit.
            __contains__, __len__ = RedisSim.__contains__, RedisSim.__len__
            multi_get, multi_put = RedisSim.multi_get, RedisSim.multi_put

        with pytest.raises(TypeError, match="commit_round"):
            NoRoundCommit()


class TestWriteOnceMode:
    @pytest.mark.parametrize("wire", [False, True],
                             ids=["RedisSim", "RemoteStore"])
    def test_duplicate_write_rejected(self, wire):
        from repro.net import RemoteStore, StorageServer

        backing = RedisSim(write_once=True)
        with StorageServer(backing) as server, \
                RemoteStore(server.address) as remote:
            store = remote if wire else backing
            store.multi_put([("k", b"v")])
            with pytest.raises(DuplicateKeyError):
                store.multi_put([("k", b"v2")])
            assert backing.multi_get(["k"]) == [b"v"]

    def test_rewrite_allowed_after_delete(self):
        store = RedisSim(write_once=True)
        store.multi_put([("k", b"v")])
        store.commit_round(["k"], ())
        store.multi_put([("k", b"v2")])  # a fresh id lifecycle
        assert store.multi_get(["k"]) == [b"v2"]


class TestRedisCommands:
    """Every RedisSim call counts as Redis commands, one per id, in
    ``storage.commands.total{backend=redis_sim,command=...}``."""

    name = "storage.commands.total{backend=redis_sim,command=%s}"

    def test_command_count(self):
        from repro import obs

        redis = RedisSim()
        with obs.capture() as handle:
            redis.multi_put([("a", b"1")])
            assert redis.multi_get(["a"]) == [b"1"]
            assert "a" in redis and len(redis) == 1
            redis.commit_round(["a"], ())
        counters = handle.registry.snapshot()["counters"]
        assert {command: counters[self.name % command]
                for command in ("SET", "GET", "EXISTS", "DBSIZE", "DEL")} \
            == dict.fromkeys(("SET", "GET", "EXISTS", "DBSIZE", "DEL"), 1)

    def test_batched_calls_count_one_command_per_id(self):
        from repro import obs

        redis = RedisSim()
        with obs.capture() as handle:
            redis.multi_put([("a", b"1"), ("b", b"2"), ("c", b"3")])
            assert redis.multi_get(["a", "b"]) == [b"1", b"2"]
            redis.commit_round(["a", "b"], [("d", b"4")])
            redis.commit_round(["c"], ())
        counters = handle.registry.snapshot()["counters"]
        assert {command: counters[self.name % command]
                for command in ("SET", "GET", "DEL")} == \
            {"SET": 4, "GET": 2, "DEL": 3}


@pytest.fixture(params=["redis", "redis-tcp"])
def write_once_pair(request):
    """A write-once store holding three ids, in process and as seen
    through a ``StorageServer``: (the handle a proxy would hold, the
    dictionary behind it)."""
    from repro.net import RemoteStore, StorageServer

    backing = RedisSim(write_once=True)
    backing.multi_put([("old1", b"1"), ("old2", b"2"), ("taken", b"t")])
    if request.param == "redis":
        yield backing, backing
        return
    with StorageServer(backing) as server, \
            RemoteStore(server.address) as remote:
        yield remote, backing


class TestRefusedCommit:
    """``commit_round`` is all or nothing (DESIGN §8): a commit the store
    refuses leaves every id exactly as it was."""

    @pytest.mark.parametrize("deletes, puts, error", [
        (["old1", "ghost"], [("new1", b"n")], KeyNotFoundError),
        (["old1", "old2"], [("new1", b"n"), ("taken", b"x")],
         DuplicateKeyError),
        (["old1", "old1"], [("new1", b"n")], KeyNotFoundError),
        (["old1"], [("new1", b"n"), ("new1", b"m")], DuplicateKeyError),
    ], ids=["missing-delete", "colliding-put", "repeated-delete",
            "repeated-put"])
    def test_refused_commit_applies_nothing(self, write_once_pair, deletes,
                                            puts, error):
        store, backing = write_once_pair
        with pytest.raises(error):
            store.commit_round(deletes, puts)
            store.flush()  # over TCP the refusal arrives with the ack
        assert len(backing) == len(store) == 3
        assert store.multi_get(["old1", "old2", "taken"]) == \
            [b"1", b"2", b"t"]
        assert "new1" not in backing

    def test_commit_may_rewrite_an_id_it_deletes(self, write_once_pair):
        """Deletes come first, as when the two batches went one by one."""
        store, backing = write_once_pair
        store.commit_round(["old1", "old2"], [("old1", b"again")])
        store.flush()
        assert len(backing) == 2
        assert store.multi_get(["old1", "taken"]) == [b"again", b"t"]

    def test_redis_batches_are_all_or_nothing_too(self):
        redis = RedisSim(write_once=True)
        redis.multi_put([("a", b"1"), ("b", b"2")])
        with pytest.raises(DuplicateKeyError):
            redis.multi_put([("c", b"3"), ("a", b"x")])
        with pytest.raises(KeyNotFoundError):
            redis.commit_round(["a", "ghost"], ())
        assert len(redis) == 2
        assert redis.multi_get(["a", "b"]) == [b"1", b"2"]


class TestRecordingStore:
    def test_records_every_access(self):
        recorder = RecordingStore(RedisSim())
        recorder.multi_put([("a", b"1")])
        recorder.multi_get(["a"])
        recorder.commit_round(["a"], ())
        assert [(r.op, r.storage_id) for r in recorder.records] == [
            ("write", "a"), ("read", "a"), ("delete", "a"),
        ]

    def test_a_load_is_recorded_as_the_backend_pulls_it(self):
        """``multi_put`` takes a stream (the initial load is one) and the
        recorder must not be where all of it is held: each write is
        recorded when the backend reaches it, in the order — and with the
        sequence numbers — the backend alone would have stored it."""
        seen_by_the_backend = []

        class Watching(RedisSim):
            def multi_put(self, items):
                for key, value in items:
                    seen_by_the_backend.append((key, len(recorder.records)))
                    super().multi_put([(key, value)])

        load = [(f"id{i:03d}", b"v%d" % i) for i in range(40)]
        unrecorded = RedisSim()
        unrecorded.multi_put(iter(load))
        recorder = RecordingStore(Watching())
        recorder.multi_put(iter(load))
        assert [(r.op, r.storage_id, r.seq) for r in recorder.records] == \
            [("write", key, seq) for seq, key in enumerate(unrecorded._data)]
        assert seen_by_the_backend == [
            (key, position + 1) for position, (key, _) in enumerate(load)]

    def test_rounds_advance(self):
        recorder = RecordingStore(RedisSim())
        recorder.multi_put([("a", b"1")])
        recorder.next_round()
        recorder.multi_get(["a"])
        assert recorder.records[0].round == 0
        assert recorder.records[1].round == 1

    def test_sequence_numbers_are_global(self):
        recorder = RecordingStore(RedisSim())
        recorder.multi_put([("a", b"1"), ("b", b"2")])
        recorder.multi_get(["a", "b"])
        assert [r.seq for r in recorder.records] == [0, 1, 2, 3]

    def test_clear_records_keeps_counters(self):
        recorder = RecordingStore(RedisSim())
        recorder.multi_put([("a", b"1")])
        recorder.next_round()
        recorder.clear_records()
        recorder.multi_get(["a"])
        assert recorder.records[0].round == 1
        assert recorder.records[0].seq == 1

    def test_contains_and_len_do_not_record(self):
        recorder = RecordingStore(RedisSim())
        recorder.multi_put([("a", b"1")])
        _ = "a" in recorder
        _ = len(recorder)
        assert len(recorder.records) == 1


class TestStorageHypothesis:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.text(min_size=1, max_size=6),
        st.binary(max_size=12)), max_size=120))
    def test_redis_sim_matches_dict_model(self, operations):
        """RedisSim agrees with a plain dict under any command sequence."""
        store = RedisSim()
        model: dict[str, bytes] = {}
        for op, key, value in operations:
            if op == "put":
                store.multi_put([(key, value)])
                model[key] = value
            elif op == "get":
                if key in model:
                    assert store.multi_get([key]) == [model[key]]
                else:
                    with pytest.raises(KeyNotFoundError):
                        store.multi_get([key])
            else:
                if key in model:
                    store.commit_round([key], ())
                    del model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        store.commit_round([key], ())
        assert len(store) == len(model)
        if model:
            keys = sorted(model)
            assert store.multi_get(keys) == [model[k] for k in keys]
