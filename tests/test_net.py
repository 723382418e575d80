"""Tests for the network substrate: protocol, server, remote store, and
Waffle over a real socket."""

import random

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, ProtocolError
from repro.net import RemoteStore, StorageServer
from repro.net.protocol import decode_message, encode_message
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
        ["GET", "key"],
        ["PIPELINE", ["SET", "k", b"v"], ["GET", "k"]],
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

    def test_unencodable_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(object())
        with pytest.raises(ProtocolError):
            encode_message(True)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(encode_message(1) + b"x")

    def test_truncated_rejected(self):
        with pytest.raises(Exception):
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
        remote.put("k", b"v")
        assert remote.get("k") == b"v"
        assert "k" in remote
        assert len(remote) == 1
        remote.delete("k")
        assert "k" not in remote

    def test_missing_key_error_propagates(self, remote):
        with pytest.raises(KeyNotFoundError):
            remote.get("ghost")

    def test_write_once_error_propagates(self):
        with StorageServer(RedisSim(write_once=True)) as server:
            with RemoteStore(server.address) as remote:
                remote.put("k", b"v")
                with pytest.raises(DuplicateKeyError):
                    remote.put("k", b"v2")

    def test_pipelined_batches(self, remote):
        items = [(f"k{i}", b"v%d" % i) for i in range(50)]
        remote.multi_put(items)
        assert remote.multi_get([k for k, _ in items]) == \
            [v for _, v in items]
        remote.multi_delete([k for k, _ in items])
        assert len(remote) == 0

    def test_empty_batches(self, remote):
        assert remote.multi_get([]) == []
        remote.multi_put([])
        remote.multi_delete([])

    def test_large_load_is_split_below_the_frame_cap(self, remote,
                                                     monkeypatch):
        """An initial load larger than one frame (N=2^16 x 1 KiB against
        the 64 MiB cap; here the cap is lowered instead) goes out as
        several PIPELINE frames, each under the cap, in input order."""
        from repro.net import client, protocol

        monkeypatch.setattr(protocol, "_MAX_FRAME", 16 * 1024)
        frames = []
        write_frame = client.write_frame

        def recording_write_frame(sock, payload):
            frames.append(payload)
            write_frame(sock, payload)

        monkeypatch.setattr(client, "write_frame", recording_write_frame)
        items = [(f"id{i:04d}", bytes([i % 256]) * 1000) for i in range(200)]
        remote.multi_put(iter(items))
        assert len(frames) > 200 * 1000 // (16 * 1024)
        assert all(len(frame) <= 12 * 1024 + 18 for frame in frames)
        sent = [tuple(command[1:]) for frame in frames
                for command in decode_message(frame)[1:]]
        assert sent == items
        # A load under the budget is still a single frame, and a round
        # commit is never split: it is offered as one frame and refused.
        frames.clear()
        remote.multi_put(items[:10])
        assert len(frames) == 1
        frames.clear()
        with pytest.raises(ProtocolError):
            remote.commit_round([], [(f"r{i}", b"x" * 1000)
                                     for i in range(20)])
        assert len(frames) == 1

    def test_binary_safety(self, remote):
        payload = bytes(range(256)) * 4
        remote.put("bin", payload)
        assert remote.get("bin") == payload

    def test_two_clients_share_state(self, server):
        with RemoteStore(server.address) as a, \
                RemoteStore(server.address) as b:
            a.put("shared", b"from-a")
            assert b.get("shared") == b"from-a"

    def test_finished_connection_threads_are_forgotten(self, server):
        """A long-lived server keeps one thread per *live* connection, not
        one per connection it has ever accepted."""
        import time

        with RemoteStore(server.address) as held:
            for i in range(50):
                with RemoteStore(server.address) as remote:
                    remote.put(f"k{i}", b"v")
            # Each serving thread notices its peer's close on its own time.
            deadline = time.monotonic() + 5
            while len(server._threads) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server._threads) == 1
            assert len(held) == 50  # the live connection still serves


class TestWaffleOverTheWire:
    def test_waffle_runs_against_remote_server(self):
        """The full proxy protocol over a real TCP connection, with the
        adversary recorder on the *server* side — where the adversary
        actually sits."""
        from repro.analysis.uniformity import verify_storage_invariants
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
        verify_storage_invariants(server_side.records)
        reads = [r for r in server_side.records if r.op == "read"]
        assert len(reads) == 10 * config.b


from hypothesis import given, settings, strategies as st

wire_values = st.recursive(
    st.none() | st.text(max_size=20) | st.binary(max_size=40)
    | st.integers(-(2**62), 2**62),
    lambda children: st.lists(children, max_size=6),
    max_leaves=20,
)


class TestProtocolProperties:
    @settings(max_examples=120, deadline=None)
    @given(wire_values)
    def test_any_value_tree_roundtrips(self, value):
        from repro.net.protocol import decode_message, encode_message
        assert decode_message(encode_message(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=80))
    def test_random_bytes_never_crash_decoder(self, noise):
        """Garbage input raises a clean ProtocolError (or decodes to a
        value if it happens to be well-formed) — never an unhandled
        struct/index error."""
        from repro.errors import ProtocolError
        from repro.net.protocol import decode_message
        try:
            decode_message(noise)
        except ProtocolError:
            pass
        except UnicodeDecodeError:
            pass  # valid frame shape, invalid UTF-8 payload: acceptable
