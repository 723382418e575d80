"""Tests for the network substrate: protocol, server, remote store, and
Waffle over a real socket."""

import contextlib
import random
import socket
import struct
import threading

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, ProtocolError
from repro.net import RemoteStore, StorageServer
from repro.net.protocol import (
    _WireError,
    decode_message,
    encode_frame,
    encode_message,
    read_frame,
)
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim


class TestProtocolEncoding:
    @pytest.mark.parametrize("value", [
        None,
        "hello",
        b"\x00\xffbytes",
        0,
        -(2**40),
        2**40,
        [],
        ["EXISTS", "key"],
        ["MGET", "id-1", "id-2"],
        ["COMMIT", ["old"], ["new-1", "new-2"], [b"v1", b""]],
        ["COMMIT", [], ["new"], [bytearray(b"v")]],
        [b"a", 1, None, ["nested", [b"deep"]]],
    ])
    def test_roundtrip(self, value):
        assert decode_message(encode_message(value)) == value

    def test_error_travels(self):
        wire = decode_message(encode_message(KeyNotFoundError("k")))
        with pytest.raises(KeyNotFoundError):
            wire.raise_()

    def test_duplicate_error_travels(self):
        wire = decode_message(encode_message(DuplicateKeyError("k")))
        with pytest.raises(DuplicateKeyError):
            wire.raise_()

    @pytest.mark.parametrize("error", [KeyNotFoundError, DuplicateKeyError])
    @pytest.mark.parametrize("key", ["plain", "a'b", "both'\"quotes",
                                     "tab\tkey", "back\\slash", "a: b"])
    def test_error_keeps_its_key(self, error, key):
        wire = decode_message(encode_message(error(key)))
        with pytest.raises(error) as raised:
            wire.raise_()
        assert raised.value.key == key

    @pytest.mark.parametrize("text", ["{[1]: 2}", "[[[", "not a repr"])
    def test_error_with_an_unparsable_key_keeps_the_text(self, text):
        with pytest.raises(KeyNotFoundError) as raised:
            _WireError(f"KeyNotFoundError:key not found: {text}").raise_()
        assert raised.value.key == text

    def test_unencodable_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(object())
        with pytest.raises(ProtocolError):
            encode_message(True)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(encode_message(1) + b"x")

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(encode_message("hello")[:-2])


@pytest.fixture
def server():
    with StorageServer(RedisSim()) as srv:
        yield srv


@pytest.fixture
def remote(server):
    with RemoteStore(server.address) as store:
        yield store


class TestRemoteStore:
    def test_put_get_delete(self, remote):
        remote.multi_put([("k", b"v")])
        assert remote.multi_get(["k"]) == [b"v"]
        assert "k" in remote
        assert len(remote) == 1
        remote.commit_round(["k"], [])
        assert "k" not in remote

    def test_missing_key_error_propagates(self, remote):
        with pytest.raises(KeyNotFoundError):
            remote.multi_get(["ghost"])

    def test_write_once_error_propagates(self):
        with StorageServer(RedisSim(write_once=True)) as server:
            with RemoteStore(server.address) as remote:
                remote.multi_put([("k", b"v")])
                with pytest.raises(DuplicateKeyError):
                    remote.multi_put([("k", b"v2")])

    def test_pipelined_batches(self, remote):
        items = [(f"k{i}", b"v%d" % i) for i in range(50)]
        remote.multi_put(items)
        assert remote.multi_get([k for k, _ in items]) == \
            [v for _, v in items]
        remote.commit_round([k for k, _ in items], [])
        assert len(remote) == 0

    def test_empty_batches(self, remote):
        assert remote.multi_get([]) == []
        remote.multi_put([])
        remote.commit_round([], [])
        remote.flush()

    def test_large_load_is_split_below_the_frame_cap(self, server, remote,
                                                     monkeypatch):
        """An initial load larger than one frame (N=2^16 x 1 KiB against
        the 64 MiB cap; here the cap is lowered instead) goes out as
        several COMMIT frames, each under the cap, in input order."""
        from repro.net import client, protocol

        monkeypatch.setattr(protocol, "_MAX_FRAME", 16 * 1024)
        offered, frames = [], []
        encode_frame = client.encode_frame

        def recording_encode_frame(message):
            offered.append(message)
            frames.append(encode_frame(message))
            return frames[-1]

        monkeypatch.setattr(client, "encode_frame", recording_encode_frame)
        items = [(f"id{i:04d}", bytes([i % 256]) * 1000) for i in range(200)]
        remote.multi_put(iter(items))
        assert len(frames) > 200 * 1000 // (16 * 1024)
        assert all(len(frame) <= 12 * 1024 + 35 for frame in frames)
        sent = []
        for frame in frames:
            name, deletes, ids, values = decode_message(frame[4:])
            assert (name, deletes) == ("COMMIT", [])
            sent += zip(ids, values)
        assert sent == items
        assert list(server.backend._data.items()) == items
        # A load under the budget is still a single frame, and a round
        # commit is never split: it is offered as one frame and refused,
        # with nothing sent and the connection still in step.
        del offered[:], frames[:]
        remote.multi_put([(f"again{i}", b"x") for i in range(10)])
        assert len(frames) == 1
        del offered[:], frames[:]
        with pytest.raises(ProtocolError):
            remote.commit_round([], [(f"r{i}", b"x" * 1000)
                                     for i in range(20)])
        assert len(offered) == 1 and not frames
        assert len(remote) == 210

    def test_reply_over_the_frame_cap_comes_back_as_an_error(
            self, remote, monkeypatch):
        """The server cannot frame the reply: the caller is told so, and
        the connection (and the thread serving it) carries on."""
        from repro.errors import StorageError
        from repro.net import protocol

        remote.multi_put([(f"k{i}", b"x" * 1000) for i in range(20)])
        monkeypatch.setattr(protocol, "_MAX_FRAME", 16 * 1024)
        with pytest.raises(StorageError, match="size cap"):
            remote.multi_get([f"k{i}" for i in range(20)])
        assert remote.multi_get(["k0", "k19"]) == [b"x" * 1000] * 2

    def test_binary_safety(self, remote):
        payload = bytes(range(256)) * 4
        remote.multi_put([("bin", payload)])
        assert remote.multi_get(["bin"]) == [payload]

    def test_two_clients_share_state(self, server):
        with RemoteStore(server.address) as a, \
                RemoteStore(server.address) as b:
            a.multi_put([("shared", b"from-a")])
            assert b.multi_get(["shared"]) == [b"from-a"]

    def test_finished_connection_threads_are_forgotten(self, server):
        """A long-lived server keeps one thread per *live* connection, not
        one per connection it has ever accepted."""
        import time

        with RemoteStore(server.address) as held:
            for i in range(50):
                with RemoteStore(server.address) as remote:
                    remote.multi_put([(f"k{i}", b"v")])
            # Each serving thread notices its peer's close on its own time.
            deadline = time.monotonic() + 5
            while len(server._threads) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server._threads) == 1
            assert len(held) == 50  # the live connection still serves


class TestBrokenConnectionStaysBroken:
    def test_late_reply_is_never_handed_to_the_next_caller(self):
        """A reply that misses the client's timeout arrives later on the
        same socket.  Replies carry no request id, so the connection has
        to die with the request: the next call must not read it."""
        import threading
        import time

        from repro.errors import ConnectionDroppedError, StorageTimeoutError

        gate = threading.Event()

        class SlowOnA(RedisSim):
            def multi_get(self, keys):
                if "a" in keys:
                    gate.wait(5)
                return super().multi_get(keys)

        backend = SlowOnA()
        backend.multi_put([("a", b"value-of-a"), ("b", b"value-of-b")])
        with StorageServer(backend) as server:
            with RemoteStore(server.address, timeout_s=0.1) as remote:
                with pytest.raises(StorageTimeoutError):
                    remote.multi_get(["a"])
                gate.set()
                time.sleep(0.3)  # the late reply is on its way
                with pytest.raises(ConnectionDroppedError):
                    remote.multi_get(["b"])
                with pytest.raises(ConnectionDroppedError):
                    remote.multi_get(["a", "b"])
            with RemoteStore(server.address) as fresh:
                assert fresh.multi_get(["b"]) == [b"value-of-b"]
                assert fresh.multi_get(["a"]) == [b"value-of-a"]

    def test_undecodable_reply_closes_the_connection(self):
        """A reply the decoder refuses, from a peer that would go on to
        answer the next request properly: it does not get the chance."""
        import socket
        import threading

        from repro.errors import ConnectionDroppedError

        listener = socket.create_server(("127.0.0.1", 0))

        def serve_one_bad_reply():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b"\x00\x00\x00\x02Z!")
                if conn.recv(4096):
                    conn.sendall(b"\x00\x00\x00\x06B\x00\x00\x00\x01v")

        thread = threading.Thread(target=serve_one_bad_reply, daemon=True)
        thread.start()
        try:
            with RemoteStore(listener.getsockname()) as remote:
                with pytest.raises(ProtocolError):
                    remote.multi_get(["a"])
                with pytest.raises(ConnectionDroppedError):
                    remote.multi_get(["a"])
        finally:
            thread.join(5)
            listener.close()
        assert not thread.is_alive()


@contextlib.contextmanager
def scripted_peer(script):
    """A listener that serves one connection with ``script(conn)`` on a
    thread, which has to finish (cleanly) within 5 s of the block's end."""
    listener = socket.create_server(("127.0.0.1", 0))
    failures = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            try:
                script(conn)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(5)
        listener.close()
    assert not thread.is_alive() and not failures


class GatedStore(RedisSim):
    """Once armed, ``commit_round`` announces itself and then waits (5 s at
    most) to be released before it applies anything."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def commit_round(self, deletes, puts):
        if self.armed:
            self.entered.set()
            self.release.wait(5)
        super().commit_round(deletes, puts)


def _on_a_thread(target):
    """Start ``target`` on a thread: (thread, [what it returned or raised])."""
    outcome = []

    def run():
        try:
            outcome.append(target())
        except Exception as error:  # noqa: BLE001 - handed to the test
            outcome.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestDeferredAcknowledgement:
    """``commit_round`` hands a round over; the next call on the connection
    collects the server's answer before sending anything (RemoteStore
    docstring).  Every wait here is bounded: a hang is a failure."""

    def test_commit_round_returns_while_the_server_is_still_applying(self):
        backend = GatedStore()
        backend.multi_put([("old", b"1"), ("kept", b"k")])
        backend.armed = True
        with StorageServer(backend) as server, \
                RemoteStore(server.address, timeout_s=5) as remote:
            remote.commit_round(["old"], [("new", b"2")])
            assert backend.entered.wait(5)
            assert "new" not in backend and "old" in backend
            # flush() is the wait commit_round no longer does.
            flusher, outcome = _on_a_thread(remote.flush)
            flusher.join(0.2)
            assert flusher.is_alive()
            backend.release.set()
            flusher.join(5)
            assert not flusher.is_alive() and outcome == [None]
            with RemoteStore(server.address, timeout_s=5) as second:
                assert second.multi_get(["new", "kept"]) == [b"2", b"k"]
                assert "old" not in second

    def test_a_refused_round_surfaces_at_the_next_call_which_sent_nothing(
            self):
        backing = RedisSim(write_once=True)
        backing.multi_put([("old1", b"1"), ("old2", b"2"), ("taken", b"t")])
        server_side = RecordingStore(backing)
        with StorageServer(server_side) as server, \
                RemoteStore(server.address, timeout_s=5) as remote:
            remote.commit_round(["old1", "old2"],
                                [("new1", b"n"), ("taken", b"x")])
            with pytest.raises(DuplicateKeyError):
                remote.multi_get(["old1"])
            # The refusal came with the ack, so the server is done with
            # the round: nothing applied, and no MGET ever arrived.
            assert "read" not in {r.op for r in server_side.records}
            assert len(backing) == 3 and "new1" not in backing
            assert backing.multi_get(["old1", "old2", "taken"]) == \
                [b"1", b"2", b"t"]
            # Said once; the connection is in step and carries on.
            remote.flush()
            assert remote.multi_get(["old1", "taken"]) == [b"1", b"t"]
            remote.commit_round(["old1"], [("new1", b"n")])
            assert remote.multi_get(["new1"]) == [b"n"]

    def test_a_peer_gone_after_the_commit_is_a_drop_at_the_next_call(self):
        from repro.errors import ConnectionDroppedError

        with scripted_peer(read_frame) as address, \
                RemoteStore(address, timeout_s=5) as remote:
            remote.commit_round(["a"], [("b", b"1")])
            with pytest.raises(ConnectionDroppedError):
                remote.multi_get(["b"])
            for later_call in (remote.flush, lambda: remote.multi_get(["b"]),
                               lambda: remote.commit_round(["b"], [])):
                with pytest.raises(ConnectionDroppedError):
                    later_call()

    def test_a_late_ack_is_a_timeout_and_is_never_handed_on(self):
        """``TestBrokenConnectionStaysBroken``, one call later; and item
        3b's hard case: the proxy cannot tell that this round went in."""
        import time

        from repro.errors import ConnectionDroppedError, StorageTimeoutError

        backend = GatedStore()
        backend.multi_put([("a", b"value-of-a"), ("b", b"value-of-b")])
        backend.armed = True
        with StorageServer(backend) as server:
            with RemoteStore(server.address, timeout_s=0.1) as remote:
                remote.commit_round(["a"], [("c", b"value-of-c")])
                with pytest.raises(StorageTimeoutError):
                    remote.multi_get(["b"])
                backend.release.set()
                time.sleep(0.3)  # the late ack (an int) is on its way
                for later_call in (lambda: remote.multi_get(["b"]),
                                   remote.flush):
                    with pytest.raises(ConnectionDroppedError):
                        later_call()
            with RemoteStore(server.address, timeout_s=5) as fresh:
                assert fresh.multi_get(["b", "c"]) == \
                    [b"value-of-b", b"value-of-c"]
                assert "a" not in fresh

    def test_a_second_commit_leaves_only_after_the_first_ack(self):
        """At most one acknowledgement is ever outstanding, so on the wire
        nothing moved: COMMIT, ack, COMMIT, ack."""
        seen = []

        def script(conn):
            seen.append(decode_message(read_frame(conn))[0])
            conn.settimeout(0.2)
            try:
                seen.append(conn.recv(1))
            except TimeoutError:
                seen.append("nothing until the ack")
            conn.settimeout(5)
            conn.sendall(encode_frame(2))
            seen.append(decode_message(read_frame(conn))[0])
            conn.sendall(encode_frame(3))

        with scripted_peer(script) as address, \
                RemoteStore(address, timeout_s=5) as remote:
            remote.commit_round(["a"], [("b", b"1")])
            remote.commit_round(["b"], [("c", b"2"), ("d", b"3")])
        assert seen == ["COMMIT", "nothing until the ack", "COMMIT"]

    @pytest.mark.parametrize("ack", [1, b"OK", [2], None],
                             ids=["count-minus-1", "ok", "list", "nil"])
    def test_an_ack_that_is_not_the_rounds_count_drops_the_connection(
            self, ack):
        """The reply to COMMIT is checked: with acks read one call late it
        is also the only evidence that requests and replies still pair up.
        The peer would have served the next request properly."""
        from repro.errors import ConnectionDroppedError

        got_more = []

        def script(conn):
            read_frame(conn)
            conn.sendall(encode_frame(ack))
            if conn.recv(4096):
                got_more.append(True)
                conn.sendall(encode_frame(b"v"))

        with scripted_peer(script) as address, \
                RemoteStore(address, timeout_s=5) as remote:
            remote.commit_round(["a"], [("b", b"1")])
            with pytest.raises(ProtocolError, match="acknowledged"):
                remote.multi_get(["b"])
            with pytest.raises(ConnectionDroppedError):
                remote.multi_get(["b"])
        assert not got_more


class SentFrames:
    """The client's socket, noting the length of every frame it sends."""

    def __init__(self, remote):
        self._sock = remote._sock
        self.sent = []
        remote._sock = self

    def sendall(self, data):
        self.sent.append(len(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _load_frame(count, id_len, blob):
    """Length of a ``["COMMIT", [], ids, values]`` frame of ``count``
    fixed-length objects: header, list, name, empty list, two arrays."""
    def packed(size):
        return 1 + 4 + 4 * count + count * size
    return (4 + (1 + 4) + (1 + 4 + len("COMMIT")) + (1 + 4)
            + packed(id_len) + packed(blob))


class TestStreamedLoad:
    """``multi_put`` pulls a load a frame at a time and never waits for a
    frame's acknowledgement before building the next (RemoteStore
    docstring); one flush ends it."""

    @staticmethod
    def five_frames():
        # 8 + 6 + 65,522 = 64 KiB an object: sixteen fill the budget.
        return [(f"id{i:04d}", bytes([i]) * 65522) for i in range(80)]

    def test_the_load_is_pulled_a_frame_at_a_time(self, server, remote,
                                                  monkeypatch):
        from repro.net import client

        pulled, framed = [], []
        encode_frame = client.encode_frame

        def noting_encode_frame(message):
            if message[0] == "COMMIT":
                framed.append(len(message[2]))
                # Everything in the frames so far, and the one object
                # that did not fit: nothing else has been produced yet.
                assert len(pulled) <= sum(framed) + 1
            return encode_frame(message)

        def load():
            for item in self.five_frames():
                pulled.append(item[0])
                yield item

        monkeypatch.setattr(client, "encode_frame", noting_encode_frame)
        remote.multi_put(load())
        assert framed == [16] * 5
        assert list(server.backend._data.items()) == self.five_frames()

    def test_a_frame_leaves_only_after_the_ack_of_the_one_before(self):
        """At most one acknowledgement is owed at any time, so no socket
        buffer can fill with them, and the load ends flushed."""
        seen = []

        def script(conn):
            for _ in range(5):
                name, deletes, ids, _ = decode_message(read_frame(conn))
                seen.append((name, deletes, len(ids)))
                conn.settimeout(0.1)
                try:
                    seen.append(conn.recv(1))
                except TimeoutError:
                    seen.append("nothing until the ack")
                conn.settimeout(5)
                conn.sendall(encode_frame(len(ids)))

        with scripted_peer(script) as address, \
                RemoteStore(address, timeout_s=5) as remote:
            remote.multi_put(iter(self.five_frames()))
            assert remote._owed is None
        assert seen == [("COMMIT", [], 16), "nothing until the ack"] * 5

    def test_every_ack_of_a_load_is_checked(self):
        from repro.errors import ConnectionDroppedError

        frames = []

        def script(conn):
            for ack in (16, 15):
                frames.append(len(decode_message(read_frame(conn))[2]))
                conn.sendall(encode_frame(ack))
            if conn.recv(4096):
                frames.append("a third frame")

        with scripted_peer(script) as address, \
                RemoteStore(address, timeout_s=5) as remote:
            with pytest.raises(ProtocolError, match="acknowledged"):
                remote.multi_put(iter(self.five_frames()))
            with pytest.raises(ConnectionDroppedError):
                remote.flush()
        assert frames == [16, 16]

    def test_a_refused_frame_stops_the_load_and_keeps_the_connection(self):
        """Frame 2 of 5 collides on a write-once server: ``multi_put``
        raises it from the send that would have followed, frames 3-5 never
        reach the socket, the connection is in step, and — a load of
        several frames is not atomic — frame 1 stays."""
        load = self.five_frames()
        backing = RedisSim(write_once=True)
        backing.multi_put([(load[20][0], b"taken")])
        with StorageServer(backing) as server, \
                RemoteStore(server.address, timeout_s=5) as remote:
            wire = SentFrames(remote)
            with pytest.raises(DuplicateKeyError):
                remote.multi_put(iter(load))
            assert len(wire.sent) == 2
            assert len(remote) == 16 + 1
            assert backing.multi_get([load[20][0]]) == [b"taken"]
            assert backing.multi_get([key for key, _ in load[:16]]) == \
                [value for _, value in load[:16]]


class TestCheckpointAndRecoveryOverTheWire:
    """A checkpoint never describes a round the server has not
    acknowledged, and a refused round is recovered by replaying it."""

    @staticmethod
    def _deployment(store):
        from repro.core.config import WaffleConfig
        from repro.core.datastore import pad_value
        from repro.core.proxy import WaffleProxy
        from repro.crypto.keys import KeyChain
        from tests.conftest import make_items

        config = WaffleConfig(n=120, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=31)
        proxy = WaffleProxy(config, store=store,
                            keychain=KeyChain.from_seed(32))
        proxy.initialize({key: pad_value(value, config.value_size)
                          for key, value in make_items(config.n).items()})
        return config, proxy

    @staticmethod
    def _batches(config, count):
        from repro.core.batch import ClientRequest
        from repro.core.datastore import pad_value
        from repro.workloads.trace import Operation

        rng = random.Random(33)
        return [[ClientRequest(op=Operation.WRITE, key=key,
                               value=pad_value(b"w%d" % rng.randrange(10**6),
                                               config.value_size))
                 if rng.random() < 0.5 else
                 ClientRequest(op=Operation.READ, key=key)
                 for key in (f"user{rng.randrange(config.n):08d}"
                             for _ in range(config.r))]
                for _ in range(count)]

    def test_capture_proxy_waits_for_the_acknowledgement(self):
        from repro.ha import capture_proxy

        backend = GatedStore(write_once=True)
        with StorageServer(backend) as server, \
                RemoteStore(server.address, timeout_s=5) as remote:
            config, proxy = self._deployment(remote)
            backend.armed = True
            proxy.handle_batch(self._batches(config, 1)[0])
            assert backend.entered.wait(5)
            capturer, outcome = _on_a_thread(lambda: capture_proxy(proxy))
            capturer.join(0.2)
            assert capturer.is_alive()
            backend.release.set()
            capturer.join(5)
            assert not capturer.is_alive()
            assert isinstance(outcome[0], bytes)

    def test_a_refused_round_is_replayed_from_the_last_checkpoint(self):
        """One recovery episode end to end.  The server refuses round k (a
        squatter sits on an id the round writes); nobody hears of it until
        the checkpoint after round k flushes, and the refusal fails that
        proxy: it sends nothing more.  A proxy restored from the round k-1
        blob onto a fresh connection replays round k, which reads exactly
        the ids the refused attempt read (the oracle's replay-prefix axis)
        and answers as an unfaulted twin does."""
        from repro.ha import capture_proxy, restore_proxy
        from repro.testing.oracle import Attempt, check_replay_prefix

        rounds, k = 6, 3
        twin_store = RecordingStore(RedisSim(write_once=True))
        config, twin = self._deployment(twin_store)
        batches = self._batches(config, rounds)
        loaded = len(twin_store.records)
        expected = [[r.value for r in twin.handle_batch(batch)]
                    for batch in batches]
        squatted = twin_store.records[loaded + 3 * config.b * k
                                      + 2 * config.b]
        assert squatted.op == "write"

        backing = RedisSim(write_once=True)
        server_side = RecordingStore(backing)
        attempts = []
        with StorageServer(server_side) as server:
            remote = RemoteStore(server.address, timeout_s=5)
            _, proxy = self._deployment(remote)
            blob = capture_proxy(proxy)
            for index, batch in enumerate(batches):
                if index == k:
                    backing.multi_put([(squatted.storage_id, b"squatter")])
                for attempt in range(2):
                    start = len(server_side.records)
                    responses = proxy.handle_batch(batch)
                    assert [r.value for r in responses] == expected[index]
                    try:
                        blob = capture_proxy(proxy)
                        ok = True
                    except DuplicateKeyError:
                        ok = False
                    attempts.append(Attempt(index, attempt, start,
                                            len(server_side.records), ok))
                    if ok:
                        break
                    # No blob was made: `blob` is still round k-1's.  The
                    # failed proxy refuses before it sends anything; the
                    # DBSIZE round trip behind it shows nothing was sent.
                    assert isinstance(proxy.failure, DuplicateKeyError)
                    sent = len(server_side.records)
                    with pytest.raises(ProtocolError,
                                       match="restore from a checkpoint"):
                        proxy.handle_batch(batch)
                    len(remote)
                    assert len(server_side.records) == sent
                    backing.commit_round([squatted.storage_id], ())
                    remote.close()
                    remote = RemoteStore(server.address, timeout_s=5)
                    proxy = restore_proxy(blob, remote)
                proxy.check_invariants()
            remote.close()
        assert [(a.batch_index, a.ok) for a in attempts] == \
            [(0, True), (1, True), (2, True), (3, False), (3, True),
             (4, True), (5, True)]
        assert check_replay_prefix(server_side.records, attempts) == []
        # Past the load, the rounds that went in are the twin's, id for id.
        refused = attempts[k]
        went_in = (server_side.records[:refused.start_seq]
                   + server_side.records[refused.end_seq:])
        steady = went_in[-3 * config.b * rounds:]
        assert [(r.op, r.storage_id) for r in steady] == \
            [(r.op, r.storage_id) for r in twin_store.records[loaded:]]


class TestWaffleOverTheWire:
    def test_waffle_runs_against_remote_server(self):
        """The full proxy protocol over a real TCP connection, with the
        adversary recorder on the *server* side — where the adversary
        actually sits."""
        from repro.analysis import Adversary
        from repro.core.batch import ClientRequest
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.workloads.trace import Operation
        from tests.conftest import make_items

        n = 120
        config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=31)
        server_side = RecordingStore(RedisSim(write_once=True))
        with StorageServer(server_side) as server:
            with RemoteStore(server.address) as remote:
                items = make_items(n)
                datastore = WaffleDatastore(config, items, store=remote,
                                            record=False,
                                            keychain=KeyChain.from_seed(32))
                reference = dict(items)
                rng = random.Random(33)
                for _ in range(10):
                    batch, expected = [], []
                    for _ in range(config.r):
                        key = f"user{rng.randrange(n):08d}"
                        if rng.random() < 0.5:
                            batch.append(ClientRequest(op=Operation.READ,
                                                       key=key))
                            expected.append(reference[key])
                        else:
                            value = b"w%d" % rng.randrange(10**6)
                            batch.append(ClientRequest(
                                op=Operation.WRITE, key=key, value=value))
                            reference[key] = value
                            expected.append(value)
                    responses = datastore.execute_batch(batch)
                    assert [r.value for r in responses] == expected
        # The server-side adversary saw a write-once/read-once id stream.
        Adversary().feed(server_side.records).check_lifecycle()
        reads = [r for r in server_side.records if r.op == "read"]
        assert len(reads) == 10 * config.b
        # After the load, every round is B reads, B deletes, B writes, in
        # that order: MGET and COMMIT reach the backend as the recorder's
        # multi_get and commit_round.
        loaded = len(server_side.records) - 10 * 3 * config.b
        assert {r.op for r in server_side.records[:loaded]} == {"write"}
        assert [r.op for r in server_side.records[loaded:]] == 10 * (
            ["read"] * config.b + ["delete"] * config.b
            + ["write"] * config.b)

    def test_the_link_adversary_sees_one_shape(self):
        """Whoever watches the proxy-storage link sees frame lengths.  Ids
        are fixed-length PRF outputs and ciphertexts fixed-length, so a
        round is four frames whose lengths follow from (B, id length,
        ciphertext length) alone: the same in every round of every
        workload, and nothing the codec does (packing included) may let
        the batch's composition show."""
        from repro.core.batch import ClientRequest
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.workloads.trace import Operation
        from tests.conftest import make_items

        n, rounds = 120, 8
        config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=31)

        class Tap:
            """The client's socket, noting (direction, bytes) per frame."""

            def __init__(self, sock):
                self._sock = sock
                self.frames = []

            def sendall(self, data):
                self.frames.append(["out", len(data)])
                self._sock.sendall(data)

            def _received(self, count):
                if self.frames[-1][0] == "out":
                    self.frames.append(["in", 0])
                self.frames[-1][1] += count
                return count

            def recv(self, count):
                data = self._sock.recv(count)
                self._received(len(data))
                return data

            def recv_into(self, buffer):
                return self._received(self._sock.recv_into(buffer))

            def close(self):
                self._sock.close()

        def all_gets_of_one_key(datastore, rng, round_):
            return [ClientRequest(op=Operation.READ, key="user00000007")
                    for _ in range(config.r)]

        def uniform_puts(datastore, rng, round_):
            return [ClientRequest(op=Operation.WRITE,
                                  key=f"user{rng.randrange(n):08d}",
                                  value=b"w%d" % rng.randrange(10**6))
                    for _ in range(config.r)]

        def inserts_and_deletes(datastore, rng, round_):
            datastore.insert(f"fresh{round_:04d}", b"new-%d" % round_)
            datastore.delete(f"user{100 + round_:08d}")
            return [ClientRequest(op=Operation.READ,
                                  key=f"user{rng.randrange(100):08d}")
                    for _ in range(config.r // 2)]

        def frames_of(traffic):
            with StorageServer(RedisSim(write_once=True)) as server, \
                    RemoteStore(server.address) as remote:
                datastore = WaffleDatastore(config, make_items(n),
                                            store=remote, record=False,
                                            keychain=KeyChain.from_seed(32))
                tap = remote._sock = Tap(remote._sock)
                rng = random.Random(34)
                for round_ in range(rounds):
                    datastore.execute_batch(traffic(datastore, rng, round_))
                overhead = datastore.proxy.keychain.cipher \
                    .ciphertext_overhead()
            return [tuple(frame) for frame in tap.frames], overhead

        seen = {traffic.__name__: frames_of(traffic) for traffic in (
            all_gets_of_one_key, uniform_puts, inserts_and_deletes)}
        b, id_len = config.b, 32
        blob = config.value_size + seen["uniform_puts"][1]

        def packed(count, size):  # tag, count, length table, payloads
            return 1 + 4 + 4 * count + count * size

        one_round = [
            ("out", 4 + packed(b + 1, 0) + len("MGET") + b * id_len),
            ("in", 4 + packed(b, blob)),
            ("out", 4 + (1 + 4) + (1 + 4 + len("COMMIT"))
             + 2 * packed(b, id_len) + packed(b, blob)),
            ("in", 4 + 1 + 8),
        ]
        for name, (frames, _) in seen.items():
            assert frames == rounds * one_round, name

    @staticmethod
    def _paged_config(seed):
        # N - C + D = 1,260 objects of 1 KiB: a load of two frames.
        from repro.core.config import WaffleConfig

        return WaffleConfig(n=1200, b=16, r=6, f_d=4, d=100, c=40,
                            value_size=1024, seed=seed)

    def test_the_load_on_the_link_is_a_function_of_its_size(self):
        """The other thing the link shows: the initial load.  Its frames
        follow from (N - C + D, id length, ciphertext length, the frame
        budget) alone — not from the keys, the values, the seed, or where
        in the load the dummies are."""
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.net.client import _LOAD_FRAME
        from tests.conftest import make_items

        def load_frames(seed, items):
            with StorageServer(RedisSim(write_once=True)) as server, \
                    RemoteStore(server.address) as remote:
                wire = SentFrames(remote)
                WaffleDatastore(self._paged_config(seed), items,
                                store=remote, record=False,
                                keychain=KeyChain.from_seed(seed + 1))
                return wire.sent

        id_len, blob = 32, 1024 + 48
        per_frame = _LOAD_FRAME // (8 + id_len + blob)
        total = 1200 - 40 + 100
        expected = [_load_frame(per_frame, id_len, blob),
                    _load_frame(total - per_frame, id_len, blob)]
        assert load_frames(31, make_items(1200)) == expected
        assert load_frames(77, {f"another-key-{i}": bytes([i % 256]) * (i % 900)
                                for i in range(1200)}) == expected

    def test_initialize_returns_with_the_load_acknowledged(self):
        """Looked at behind the server the moment ``initialize`` returns:
        all N + D - C objects are in, nothing is owed."""
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from tests.conftest import make_items

        backing = RedisSim(write_once=True)
        with StorageServer(backing) as server, \
                RemoteStore(server.address) as remote:
            datastore = WaffleDatastore(self._paged_config(31),
                                        make_items(1200), store=remote,
                                        record=False,
                                        keychain=KeyChain.from_seed(32))
            assert remote._owed is None
            assert len(backing._data) == 1200 + 100 - 40
            datastore.proxy.check_invariants()

    def test_an_oversize_initial_value_is_refused_before_the_first_byte(self):
        """Values are padded as the load reaches them, but their lengths
        are checked before it starts: a bad value late in the dataset
        cannot leave a frame of it on the server."""
        from repro.core.datastore import WaffleDatastore
        from repro.errors import ConfigurationError
        from tests.conftest import make_items

        items = make_items(1200)
        items[list(items)[-1]] = b"x" * 1021
        backing = RedisSim(write_once=True)
        with StorageServer(backing) as server, \
                RemoteStore(server.address) as remote:
            wire = SentFrames(remote)
            with pytest.raises(ConfigurationError, match="1021 bytes"):
                WaffleDatastore(self._paged_config(31), items, store=remote,
                                record=False)
            assert wire.sent == [] and len(backing._data) == 0


from hypothesis import given, settings, strategies as st

_short_bytes = st.binary(max_size=8)
wire_values = st.recursive(
    st.none() | st.text(max_size=20) | st.binary(max_size=40)
    | _short_bytes.map(bytearray) | st.integers(-(2**62), 2**62),
    # Lists of anything, and lists the encoder packs: all str (any
    # alphabet, empty strings too) or all bytes; a bytearray among the
    # bytes keeps a list on the generic tag.
    lambda children: st.lists(children, max_size=6)
    | st.lists(st.text(max_size=8), max_size=6)
    | st.lists(_short_bytes, max_size=6)
    | st.lists(_short_bytes | _short_bytes.map(bytearray), max_size=6)
    | st.lists(children, max_size=4).map(tuple),
    max_leaves=20,
)


def _as_decoded(value):
    """What a value comes back as: sequences as lists, buffers as bytes."""
    if isinstance(value, (list, tuple)):
        return [_as_decoded(item) for item in value]
    return bytes(value) if isinstance(value, bytearray) else value


class TestProtocolProperties:
    @settings(max_examples=300, deadline=None)
    @given(wire_values)
    def test_any_value_tree_roundtrips(self, value):
        decoded = decode_message(encode_message(value))
        # repr tells list from tuple and bytes from bytearray; == does not.
        assert repr(decoded) == repr(_as_decoded(value))

    @pytest.mark.parametrize("value, tag", [
        (["MGET", "a", ""], b"s"),
        (["\u00e9t\u00e9", "\U0001f9c7"], b"s"),
        (("a", "b"), b"s"),
        ([b"", b"x"], b"b"),
        ([], b"L"),
        ([b"x", bytearray(b"y")], b"L"),
        (["a", b"b"], b"L"),
        (["a", None], b"L"),
        ([["a"], ["b"]], b"L"),
    ])
    def test_the_encoder_packs_exactly_the_homogeneous_lists(self, value,
                                                             tag):
        payload = encode_message(value)
        assert payload[:1] == tag
        assert decode_message(payload) == _as_decoded(value)
        if tag != b"L":  # 4-byte count, 4 bytes a length, no tag per item
            sizes = [len(item.encode() if tag == b"s" else item)
                     for item in value]
            assert len(payload) == 5 + 4 * len(value) + sum(sizes)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=80))
    def test_random_bytes_never_crash_decoder(self, noise):
        """Garbage input raises a clean ProtocolError (or decodes to a
        value if it happens to be well-formed) — never an unhandled
        struct, index or Unicode error."""
        try:
            decode_message(noise)
        except ProtocolError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(wire_values, st.data())
    def test_a_damaged_message_never_crashes_decoder(self, value, data):
        """The same, starting from a well-formed message: one byte
        changed, or cut short."""
        payload = bytearray(encode_message(value))
        position = data.draw(st.integers(0, len(payload) - 1))
        payload[position] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(payload)))
        for damaged in (payload, payload[:cut]):
            try:
                decode_message(damaged)
            except ProtocolError:
                pass


def _itemwise_s_array(items):
    """An ``s`` array as the item-by-item encoder built it: each item
    encoded on its own, its byte length measured from that."""
    encoded = [item.encode("utf-8") for item in items]
    return (struct.pack(f">cI{len(items)}I", b"s", len(items),
                        *map(len, encoded)) + b"".join(encoded))


class TestPackedStrings:
    """An all-``str`` list is encoded in one pass and decoded from one
    ``str`` of its region; the frame and the items are what the
    item-by-item codec made and read."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.text(alphabet=st.characters(max_codepoint=127),
                            max_size=40), min_size=1, max_size=12)
           | st.lists(st.text(max_size=8), min_size=1, max_size=12))
    def test_frames_match_the_itemwise_encoder(self, items):
        payload = encode_message(items)
        assert payload == _itemwise_s_array(items)
        assert decode_message(payload) == items

    @pytest.mark.parametrize("items", [
        ["", "", ""],
        ["été", "", "\U0001f9c7"],
        ["aé", "éb"],  # a 2-byte character on each side of a cut
        ["\U0001f9c7", "\U0001f9c7"],
        ["ascii", "mixed ☃", "ascii"],
    ])
    def test_non_ascii_and_empty_items_roundtrip(self, items):
        assert decode_message(encode_message(items)) == items

    @pytest.mark.parametrize("region, lengths", [
        (b"\xff", [1]),
        (b"a\xc3", [2]),
        # Valid UTF-8 as a whole, but the cut splits "é" between items.
        ("é".encode(), [1, 1]),
        ("x\U0001f9c7".encode(), [2, 3]),
    ])
    def test_invalid_utf8_in_an_item_is_a_protocol_error(self, region,
                                                         lengths):
        payload = (struct.pack(f">cI{len(lengths)}I", b"s", len(lengths),
                               *lengths) + region)
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_message(payload)
