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

from repro.errors import ProtocolError
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
from repro.storage.memory import InMemoryStore
from repro.workloads.ycsb import key_name


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


#: What goes on the socket, whole: three payloads the decoder must refuse
#: (unknown tag, invalid UTF-8, nesting deep enough to exhaust the
#: interpreter stack) and a length header above the frame cap.
HOSTILE = {
    "unknown-tag": _framed(b"Z"),
    "bad-utf8": _framed(b"S\x00\x00\x00\x01\xff"),
    "deep-nesting": _framed(b"L\x00\x00\x00\x01" * 5000 + b"N"),
    "oversize-header": struct.pack(">I", _MAX_FRAME + 1),
}


@pytest.mark.parametrize("payload", [
    b"Z", b"S\x00\x00\x00\x01\xff", b"L\x00\x00\x00\x01" * 5000 + b"N",
], ids=["unknown-tag", "bad-utf8", "deep-nesting"])
def test_decoder_refuses_with_protocol_error(payload):
    with pytest.raises(ProtocolError):
        decode_message(payload)


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
    backend = InMemoryStore()
    with StorageServer(backend) as server:
        with RemoteStore(server.address) as bystander:
            bystander.put("before", b"1")
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(HOSTILE[name])
                _expect_rejection(sock)
            # Nothing reached the backend, and the other connection (and
            # new ones) are still served.
            assert len(backend) == 1
            assert bystander.get("before") == b"1"
            bystander.put("after", b"2")
        with RemoteStore(server.address) as fresh:
            assert fresh.get("after") == b"2"


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
