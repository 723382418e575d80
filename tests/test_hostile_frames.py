"""Malformed and oversized frames at both sockets.

A peer that sends bytes the decoder rejects must cost the server one
connection and nothing else: the peer gets a wire error, its connection
closes, nothing reaches the backend or the frontend, and every other
connection keeps being served.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.errors import ProtocolError, StorageError
from repro.net import StorageServer
from repro.net.client import RemoteStore
from repro.net.protocol import (
    _MAX_DEPTH,
    _MAX_FRAME,
    _WireError,
    decode_message,
    encode_message,
    read_frame,
)
from repro.serve import AsyncFrontend, AsyncServeClient, MaxWaitPolicy, ServeServer
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.ycsb import key_name


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _packed(tag: bytes, count: int, lengths: list[int], body: bytes) -> bytes:
    """A packed-array payload with whatever count and table it is told."""
    return tag + struct.pack(f">I{len(lengths)}I", count, *lengths) + body


#: Payloads the decoder must refuse: unknown tag, invalid UTF-8, nesting
#: deep enough to exhaust the interpreter stack, and for each packed-array
#: tag a count the payload cannot hold (one of them the largest there is),
#: a length table that sums past the end, and a cut in the middle.
REFUSED = {
    "unknown-tag": b"Z",
    "bad-utf8": b"S\x00\x00\x00\x01\xff",
    "deep-nesting": b"L\x00\x00\x00\x01" * 5000 + b"N",
    "packed-bad-utf8": _packed(b"s", 3, [2, 1, 2], b"ok\xffok"),
}
for _tag in (b"s", b"b"):
    _name = _tag.decode()
    REFUSED |= {
        f"packed-{_name}-count-over": _packed(_tag, 3, [1, 1], b"ab"),
        f"packed-{_name}-count-max": _packed(_tag, 0xFFFFFFFF, [1], b"a"),
        f"packed-{_name}-lengths-past-end": _packed(_tag, 2, [1, 9], b"abcd"),
        f"packed-{_name}-length-max": _packed(
            _tag, 2, [1, 0xFFFFFFFF], b"abcd"),
        f"packed-{_name}-cut": _packed(_tag, 2, [2, 2], b"abc"),
    }

#: What goes on the socket, whole: each refused payload in a frame, and a
#: length header above the frame cap.
HOSTILE = {name: _framed(payload) for name, payload in REFUSED.items()}
HOSTILE["oversize-header"] = struct.pack(">I", _MAX_FRAME + 1)

#: The two frames a round is made of, as ``RemoteStore`` sends them.
ROUND_MESSAGES = {
    "MGET": ["MGET", "id-one", "id-2", "", "id-fo\u00fcr"],
    "COMMIT": ["COMMIT", ["old-1", "old-2"], ["new-1", "new-2", "n3"],
               [b"value-1", b"", b"\x00\xff" * 9]],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_decoder_refuses_with_protocol_error(name):
    with pytest.raises(ProtocolError):
        decode_message(REFUSED[name])


def test_a_hostile_count_sizes_no_allocation():
    """``0xFFFFFFFF`` entries would be a 16 GiB length table: the decoder
    has to see that they are not there before it builds anything."""
    import tracemalloc

    tracemalloc.start()
    try:
        for tag in "sb":
            with pytest.raises(ProtocolError):
                decode_message(REFUSED[f"packed-{tag}-count-max"])
            with pytest.raises(ProtocolError):
                decode_message(REFUSED[f"packed-{tag}-length-max"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("command", sorted(ROUND_MESSAGES))
def test_every_truncation_of_a_round_frame_is_refused(command):
    payload = encode_message(ROUND_MESSAGES[command])
    assert decode_message(payload) == ROUND_MESSAGES[command]
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            decode_message(payload[:cut])
    with pytest.raises(ProtocolError):
        decode_message(payload + b"\x00")


def test_nesting_up_to_the_cap_still_decodes():
    value = None
    for _ in range(_MAX_DEPTH):
        value = [value]
    assert decode_message(encode_message(value)) == value
    with pytest.raises(ProtocolError, match="nesting"):
        decode_message(encode_message([value]))


def _expect_rejection(sock: socket.socket) -> None:
    """The peer's view: one wire error, then end of stream."""
    reply = decode_message(read_frame(sock))
    assert isinstance(reply, _WireError)
    assert reply.message.startswith("ProtocolError:")
    assert sock.recv(1) == b""


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_storage_server_drops_only_the_hostile_peer(name):
    backend = RedisSim()
    with StorageServer(backend) as server:
        with RemoteStore(server.address) as bystander:
            bystander.multi_put([("before", b"1")])
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(HOSTILE[name])
                _expect_rejection(sock)
            # Nothing reached the backend, and the other connection (and
            # new ones) are still served.
            assert len(backend) == 1
            assert bystander.multi_get(["before"]) == [b"1"]
            bystander.multi_put([("after", b"2")])
        with RemoteStore(server.address) as fresh:
            assert fresh.multi_get(["after"]) == [b"2"]


@pytest.mark.parametrize("command", sorted(ROUND_MESSAGES))
def test_storage_server_refuses_every_truncated_round_frame(command):
    """The same cuts, each as a well-framed request on a connection of its
    own; the last connection sends the frame whole and is served."""
    backend = RedisSim()
    backend.multi_put([("old-1", b"1"), ("old-2", b"2"), ("id-one", b"a"),
                       ("id-2", b"b"), ("", b"c"), ("id-fo\u00fcr", b"d")])
    payload = encode_message(ROUND_MESSAGES[command])
    with StorageServer(backend) as server:
        for cut in range(len(payload)):
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(_framed(payload[:cut]))
                _expect_rejection(sock)
        assert len(backend) == 6 and "new-1" not in backend
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(_framed(payload))
            reply = decode_message(read_frame(sock))
        assert reply == {"MGET": [b"a", b"b", b"c", b"d"], "COMMIT": 5}[command]


@pytest.mark.parametrize("request_, complaint", [
    (["COMMIT"], "deletes, ids and values"),
    (["COMMIT", ["old"], ["new"]], "deletes, ids and values"),
    (["COMMIT", ["old"], ["new"], [b"v"], []], "deletes, ids and values"),
    (["COMMIT", "old", ["new"], [b"v"]], "deletes, ids and values"),
    (["COMMIT", ["old"], ["new", "new-2"], [b"v"]], "one bytes value"),
    (["COMMIT", ["old"], ["new"], [b"v", b"w"]], "one bytes value"),
    (["COMMIT", ["old"], ["new", 7], [b"v", b"w"]], "str ids"),
    (["COMMIT", ["old", None], ["new"], [b"v"]], "str ids"),
    (["COMMIT", ["old"], ["new"], ["v"]], "one bytes value"),
    (["COMMIT", ["old"], ["new", "new-2"], [b"v", 2]], "one bytes value"),
], ids=["no-arrays", "two-arrays", "four-arrays", "deletes-not-a-list",
        "fewer-values", "more-values", "int-id", "nil-delete", "str-value",
        "int-value"])
def test_malformed_commit_is_a_wire_error_and_applies_nothing(request_,
                                                              complaint):
    """Decodable, so the peer keeps its connection, but refused whole."""
    _assert_refused_whole(request_, complaint)


@pytest.mark.parametrize("request_", [
    ["MGET", 7],
    ["MGET", b"old"],
    ["MGET", ["old"]],
    ["MGET", None],
    ["MGET", "old", 7],
], ids=["int-id", "bytes-id", "nested-list", "nil-id", "str-then-int"])
def test_malformed_mget_is_a_wire_error_and_reads_nothing(request_):
    """``MGET`` is checked the way ``COMMIT`` is: an id that is not a
    ``str`` is refused before the backend sees any id of the batch."""
    _assert_refused_whole(request_, "MGET takes str ids")


@pytest.mark.parametrize("request_, complaint", [
    (["SET", "k", 10**8], "unknown command 'SET'"),
    (["SET", 7, b"v"], "unknown command 'SET'"),
    (["SET", "k", "v"], "unknown command 'SET'"),
    (["SET", "k"], "unknown command 'SET'"),
    (["SET", "k", b"v", b"w"], "unknown command 'SET'"),
    (["GET", 7], "unknown command 'GET'"),
    (["GET"], "unknown command 'GET'"),
    (["DEL", None], "unknown command 'DEL'"),
    (["SET", "k", b"v"], "unknown command 'SET'"),
    (["GET", "old"], "unknown command 'GET'"),
    (["DEL", "old"], "unknown command 'DEL'"),
    (["EXISTS", b"old"], "EXISTS takes str"),
    (["DBSIZE", "old"], "DBSIZE takes no arguments"),
    (["FLUSHALL"], "unknown command 'FLUSHALL'"),
    ([7, "old"], "unknown command 7"),
], ids=["set-int-value", "set-int-key", "set-str-value", "set-no-value",
        "set-extra-value", "get-int-key", "get-no-key", "del-nil-key",
        "set-well-formed", "get-well-formed", "del-well-formed",
        "exists-bytes-key", "dbsize-argument", "unknown-command",
        "int-command"])
def test_malformed_single_command_is_a_wire_error_and_applies_nothing(
        request_, complaint):
    """The server takes MGET, COMMIT, EXISTS and DBSIZE.  Single-key
    GET / SET / DEL are not storage commands, however well formed, and
    EXISTS / DBSIZE are checked the way ``COMMIT`` is: a non-``str`` key
    must not reach the dictionary."""
    _assert_refused_whole(request_, complaint)


def _assert_refused_whole(request_, complaint):
    backend = RedisSim()
    backend.multi_put([("old", b"1")])
    recorder = RecordingStore(backend)
    with StorageServer(recorder) as server:
        with RemoteStore(server.address) as bystander, \
                socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(_framed(encode_message(request_)))
            reply = decode_message(read_frame(sock))
            assert isinstance(reply, _WireError)
            assert reply.message.startswith("ProtocolError:")
            assert complaint in reply.message
            assert backend._data == {"old": b"1"}
            assert recorder.records == []  # no id reached the backend
            # Still in step on the same connection, and next to it.
            sock.sendall(_framed(encode_message(
                ["COMMIT", ["old"], ["new"], [b"v"]])))
            assert decode_message(read_frame(sock)) == 2
            assert bystander.multi_get(["new"]) == [b"v"]


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_serve_server_drops_only_the_hostile_peer(name, small_datastore):
    async def scenario():
        frontend = AsyncFrontend(small_datastore,
                                 policy=MaxWaitPolicy(8, 0.005))
        async with ServeServer(frontend) as server:
            host, port = server.address
            async with AsyncServeClient(host, port) as bystander:
                assert await bystander.ping() == b"PONG"
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(HOSTILE[name])
                await writer.drain()
                header = await asyncio.wait_for(reader.readexactly(4), 5)
                (length,) = struct.unpack(">I", header)
                reply = decode_message(await reader.readexactly(length))
                assert isinstance(reply, _WireError)
                assert reply.message.startswith("ProtocolError:")
                assert await asyncio.wait_for(reader.read(1), 5) == b""
                writer.close()
                await writer.wait_closed()
                # Nothing reached the frontend; the bystander is served.
                assert frontend.stats()["admitted"] == 0
                assert await bystander.get(key_name(3)) == b"value-3"

    asyncio.run(scenario())


@pytest.mark.parametrize("command", sorted(ROUND_MESSAGES))
def test_serve_server_refuses_every_truncated_round_frame(command,
                                                          small_datastore):
    payload = encode_message(ROUND_MESSAGES[command])

    async def scenario():
        frontend = AsyncFrontend(small_datastore,
                                 policy=MaxWaitPolicy(8, 0.005))
        async with ServeServer(frontend) as server:
            host, port = server.address
            for cut in range(len(payload)):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(_framed(payload[:cut]))
                await writer.drain()
                header = await asyncio.wait_for(reader.readexactly(4), 5)
                (length,) = struct.unpack(">I", header)
                reply = decode_message(await reader.readexactly(length))
                assert isinstance(reply, _WireError)
                assert reply.message.startswith("ProtocolError:")
                assert await asyncio.wait_for(reader.read(1), 5) == b""
                writer.close()
                await writer.wait_closed()
            assert frontend.stats()["admitted"] == 0
            async with AsyncServeClient(host, port) as bystander:
                assert await bystander.get(key_name(3)) == b"value-3"

    asyncio.run(scenario())


@pytest.mark.parametrize("request_, complaint", [
    (["PUT", key_name(3), [65, 66]], "PUT takes str, bytes"),
    (["PUT", key_name(3), 10**8], "PUT takes str, bytes"),
    (["PUT", key_name(3), "v"], "PUT takes str, bytes"),
    (["PUT", 7, b"v"], "PUT takes str, bytes"),
    (["PUT", key_name(3)], "PUT takes str, bytes"),
    (["PUT", key_name(3), b"v", b"w"], "PUT takes str, bytes"),
    (["GET"], "GET takes str"),
    (["GET", 7], "GET takes str"),
    (["PING", "x"], "PING takes no arguments"),
    (["STATS", 0], "STATS takes no arguments"),
    (["SHARDS"], "unknown command 'SHARDS'"),
    ([7, key_name(3)], "unknown command 7"),
], ids=["put-int-list-value", "put-int-value", "put-str-value",
        "put-int-key", "put-no-value", "put-extra-value", "get-no-key",
        "get-int-key", "ping-argument", "stats-argument", "shards-command",
        "int-command"])
def test_malformed_serve_command_admits_nothing(
        request_, complaint, small_datastore):
    """The serve socket checks its commands the way the storage socket
    does: a list of ints is not a value, an int value must not become
    ``bytes(n)``, and a missing argument is the peer's error, not an
    ``IndexError``."""
    async def scenario():
        frontend = AsyncFrontend(small_datastore,
                                 policy=MaxWaitPolicy(8, 0.005))
        async with ServeServer(frontend) as server:
            async with AsyncServeClient(*server.address) as client:
                with pytest.raises(StorageError) as refused:
                    await client._call(request_)
                assert str(refused.value).startswith("ProtocolError:")
                assert complaint in str(refused.value)
                assert frontend.stats()["admitted"] == 0
                # Still in step on the same connection; nothing was stored.
                assert await client.get(key_name(3)) == b"value-3"

    asyncio.run(scenario())
