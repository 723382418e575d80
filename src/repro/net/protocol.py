"""Wire protocol: length-prefixed framed messages for storage commands.

Frame layout (all integers big-endian):

* 4 bytes — payload length ``L``
* ``L`` bytes — payload

A payload encodes one *message*: a type tag byte followed by typed
fields.  Commands and replies reuse one recursive value encoding:

=========  ==============================================
tag        meaning
=========  ==============================================
``S``      UTF-8 string (4-byte length + bytes)
``B``      raw bytes (4-byte length + bytes)
``I``      signed 64-bit integer
``L``      list (4-byte count + encoded items)
``N``      none/nil
``E``      error (4-byte length + UTF-8 message)
=========  ==============================================

A request payload is a list: ``[command_name, arg, ...]`` — exactly the
command tuples :meth:`RedisSim.execute` accepts, so the server is a thin
shim.  A pipeline request is ``["PIPELINE", [cmd...], [cmd...]]`` and
its reply is the list of per-command replies.
"""

from __future__ import annotations

import io
import socket
import struct

from repro.errors import ProtocolError

__all__ = [
    "decode_message",
    "encode_message",
    "read_frame",
    "read_frame_async",
    "write_frame",
    "write_frame_async",
]

_MAX_FRAME = 64 * 1024 * 1024  # defensive cap: 64 MiB per frame
#: Deepest list nesting a message may carry (real traffic reaches 3): the
#: decoder recurses per level, so a hostile frame must not choose the depth.
_MAX_DEPTH = 32


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------
def _encode_value(buffer: io.BytesIO, value) -> None:
    if value is None:
        buffer.write(b"N")
    elif isinstance(value, bool):  # bools are ints; reject explicitly
        raise ProtocolError("booleans are not wire values")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        buffer.write(b"S" + struct.pack(">I", len(data)) + data)
    elif isinstance(value, (bytes, bytearray)):
        buffer.write(b"B" + struct.pack(">I", len(value)) + bytes(value))
    elif isinstance(value, int):
        buffer.write(b"I" + struct.pack(">q", value))
    elif isinstance(value, (list, tuple)):
        buffer.write(b"L" + struct.pack(">I", len(value)))
        for item in value:
            _encode_value(buffer, item)
    elif isinstance(value, Exception):
        message = f"{type(value).__name__}:{value}"
        data = message.encode("utf-8")
        buffer.write(b"E" + struct.pack(">I", len(data)) + data)
    else:
        raise ProtocolError(f"cannot encode {type(value).__name__}")


def _take(buffer: io.BytesIO, count: int) -> bytes:
    data = buffer.read(count)
    if len(data) != count:
        raise ProtocolError("truncated message")
    return data


def _decode_value(buffer: io.BytesIO, depth: int = 0):
    tag = _take(buffer, 1)
    if tag == b"N":
        return None
    if tag == b"S":
        (length,) = struct.unpack(">I", _take(buffer, 4))
        return _take(buffer, length).decode("utf-8")
    if tag == b"B":
        (length,) = struct.unpack(">I", _take(buffer, 4))
        return _take(buffer, length)
    if tag == b"I":
        (value,) = struct.unpack(">q", _take(buffer, 8))
        return value
    if tag == b"L":
        if depth >= _MAX_DEPTH:
            raise ProtocolError("list nesting exceeds depth cap")
        (count,) = struct.unpack(">I", _take(buffer, 4))
        return [_decode_value(buffer, depth + 1) for _ in range(count)]
    if tag == b"E":
        (length,) = struct.unpack(">I", _take(buffer, 4))
        return _WireError(_take(buffer, length).decode("utf-8"))
    raise ProtocolError(f"unknown wire tag {tag!r}")


class _WireError:
    """Marker for an error travelling as a reply value."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def raise_(self) -> None:
        from repro.errors import (
            DuplicateKeyError,
            KeyNotFoundError,
            OverloadedError,
            StorageError,
        )

        name, _, detail = self.message.partition(":")
        if name == "KeyNotFoundError":
            # detail looks like "key not found: 'abc'"
            raise KeyNotFoundError(detail.split(": ", 1)[-1].strip("'"))
        if name == "DuplicateKeyError":
            raise DuplicateKeyError(detail.split(": ", 1)[-1].strip("'"))
        if name == "OverloadedError":
            # Retryable by taxonomy: the request was shed before it
            # reached the proxy (is_retryable() returns True).
            raise OverloadedError(detail.strip() or "server overloaded")
        raise StorageError(self.message)


def encode_message(value) -> bytes:
    """Encode one message (a value tree) to payload bytes."""
    buffer = io.BytesIO()
    _encode_value(buffer, value)
    return buffer.getvalue()


def decode_message(payload: bytes):
    """Decode payload bytes back into a value tree; whatever is wrong with
    a malformed payload, it raises :class:`~repro.errors.ProtocolError`."""
    buffer = io.BytesIO(payload)
    try:
        value = _decode_value(buffer)
    except UnicodeDecodeError as error:
        raise ProtocolError(f"malformed UTF-8 in message: {error}") from error
    if buffer.read(1):
        raise ProtocolError("trailing bytes after message")
    return value


# ----------------------------------------------------------------------
# framing over a socket
# ----------------------------------------------------------------------
def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one length-prefixed frame."""
    if len(payload) > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes:
    """Receive one length-prefixed frame."""
    (length,) = struct.unpack(">I", _read_exact(sock, 4))
    if length > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    return _read_exact(sock, length)


# ----------------------------------------------------------------------
# framing over asyncio streams (the serving frontend's transport)
# ----------------------------------------------------------------------
async def write_frame_async(writer, payload: bytes) -> None:
    """Send one length-prefixed frame on an ``asyncio.StreamWriter``."""
    if len(payload) > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    writer.write(struct.pack(">I", len(payload)) + payload)
    await writer.drain()


async def read_frame_async(reader) -> bytes:
    """Receive one length-prefixed frame from an ``asyncio.StreamReader``.

    Raises ``ConnectionError`` on a peer that closes cleanly between
    frames (mirroring :func:`read_frame`'s socket behaviour) and
    :class:`~repro.errors.ProtocolError` on an oversized declaration.
    A peer that stalls mid-frame simply pends here — slow-loris clients
    hold their own connection task, never the server.
    """
    import asyncio

    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("peer closed the connection") from error
    (length,) = struct.unpack(">I", header)
    if length > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("peer closed mid-frame") from error
