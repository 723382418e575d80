"""One contract table: the calls a round makes, over every store.

Each case runs over the in-process store, the recorder, the forwarding
wrapper, the fault injector with an empty plan, and a ``RemoteStore``
talking to a ``StorageServer``.  All of them sit on a write-once
``RedisSim`` holding three ids, which is how Waffle runs its server.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.net import RemoteStore, StorageServer
from repro.storage import (
    PassthroughStore,
    RecordingStore,
    RedisSim,
    StorageBackend,
)
from repro.testing import FaultPlan, FaultyStorage

LOADED = {"a": b"1", "b": b"2", "c": b"3"}


@dataclass
class Stack:
    #: What a proxy would hold.
    store: StorageBackend
    #: The dictionary at the bottom.
    backing: RedisSim
    #: The recorder a round boundary on ``store`` has to reach, if any.
    recorder: RecordingStore | None


@contextlib.contextmanager
def _stack(kind):
    backing = RedisSim(write_once=True)
    backing.multi_put(LOADED.items())
    if kind == "RemoteStore":
        with StorageServer(backing) as server, \
                RemoteStore(server.address, timeout_s=5) as remote:
            yield Stack(remote, backing, None)
        return
    if kind == "RedisSim":
        yield Stack(backing, backing, None)
        return
    recorder = RecordingStore(backing)
    store = {
        "RecordingStore": recorder,
        "PassthroughStore": PassthroughStore(recorder),
        "FaultyStorage": FaultyStorage(recorder, FaultPlan()),
    }[kind]
    yield Stack(store, backing, recorder)


KINDS = ["RedisSim", "RecordingStore", "PassthroughStore", "FaultyStorage",
         "RemoteStore"]


@pytest.fixture(params=KINDS)
def stack(request):
    with _stack(request.param) as built:
        yield built


def test_multi_get_answers_in_the_order_asked(stack):
    assert stack.store.multi_get(["c", "a", "b"]) == [b"3", b"1", b"2"]
    assert stack.store.multi_get([]) == []


def test_multi_get_of_a_missing_id_is_key_not_found(stack):
    with pytest.raises(KeyNotFoundError) as raised:
        stack.store.multi_get(["a", "ghost"])
    assert raised.value.key == "ghost"
    assert stack.store.multi_get(["a"]) == [b"1"]  # still served


def test_multi_put_of_a_present_id_is_refused_whole(stack):
    with pytest.raises(DuplicateKeyError) as raised:
        stack.store.multi_put([("new", b"n"), ("b", b"x")])
    assert raised.value.key == "b"
    assert stack.backing._data == LOADED


@pytest.mark.parametrize("deletes, puts, error, key", [
    (["a", "ghost"], [("new", b"n")], KeyNotFoundError, "ghost"),
    (["a", "b"], [("new", b"n"), ("c", b"x")], DuplicateKeyError, "c"),
    (["a", "a"], [("new", b"n")], KeyNotFoundError, "a"),
    (["a"], [("new", b"n"), ("new", b"m")], DuplicateKeyError, "new"),
], ids=["missing-delete", "colliding-put", "repeated-delete",
        "repeated-put"])
def test_a_refused_commit_applies_nothing(stack, deletes, puts, error, key):
    with pytest.raises(error) as raised:
        stack.store.commit_round(deletes, puts)
        stack.store.flush()  # over TCP the refusal arrives with the ack
    assert raised.value.key == key
    assert stack.backing._data == LOADED
    assert stack.store.multi_get(["a", "b", "c"]) == [b"1", b"2", b"3"]


def test_a_commit_deletes_then_writes(stack):
    """Deletes come first, so a round may write an id it deletes."""
    stack.store.commit_round(["a", "b"], [("a", b"again"), ("d", b"4")])
    stack.store.flush()
    assert stack.backing._data == {"a": b"again", "c": b"3", "d": b"4"}


def test_next_round_reaches_the_recorder_below(stack):
    rounds = [stack.store.next_round() for _ in range(3)]
    if stack.recorder is None:
        assert rounds == [None] * 3
        return
    assert rounds == [1, 2, 3]
    stack.store.multi_get(["a"])
    assert [(r.op, r.round) for r in stack.recorder.records] == \
        [("read", 3)]


def test_contains_and_len_are_not_accesses(stack):
    assert isinstance(stack.store, StorageBackend)
    assert "a" in stack.store and "ghost" not in stack.store
    assert len(stack.store) == 3
    if stack.recorder is not None:
        assert stack.recorder.records == []


def _first_refusal(deletes, puts):
    """What applying the commit to ``LOADED`` one id at a time would raise
    first, as ``(error, id)``, or None: deletes in order, then puts, on a
    write-once store."""
    present = set(LOADED)
    for key in deletes:
        if key not in present:
            return KeyNotFoundError, key
        present.remove(key)
    for key, _ in puts:
        if key in present:
            return DuplicateKeyError, key
        present.add(key)
    return None


# Ids drawn from a small pool that overlaps the three loaded ones, so
# batches repeat, miss and collide often.
_ids = st.sampled_from(["a", "b", "c", "new", "other"])


@pytest.mark.parametrize("kind", KINDS)
@given(deletes=st.lists(_ids, max_size=4),
       put_ids=st.lists(_ids, max_size=4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_commit_is_refused_exactly_as_one_id_at_a_time(kind, deletes,
                                                        put_ids):
    """The batch check refuses what a sequential apply would fail on part
    way (a missing or repeated delete, a repeated put, a write of a
    present id), names the same id, and applies nothing; a put of an id
    the same batch deletes goes through."""
    puts = [(key, key.encode()) for key in put_ids]
    expected = _first_refusal(deletes, puts)
    with _stack(kind) as built:
        if expected is None:
            built.store.commit_round(deletes, puts)
            built.store.flush()
            assert built.backing._data == {
                **{k: v for k, v in LOADED.items() if k not in deletes},
                **dict(puts)}
            return
        error, key = expected
        with pytest.raises(error) as raised:
            built.store.commit_round(deletes, puts)
            built.store.flush()
        assert raised.value.key == key
        assert built.backing._data == LOADED
