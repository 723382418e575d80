"""Wire protocol: length-prefixed framed messages for storage commands.

Frame layout (all integers big-endian):

* 4 bytes — payload length ``L``
* ``L`` bytes — payload

A payload encodes one *message*: a type tag byte followed by typed
fields.  Commands and replies reuse one recursive value encoding:

=========  ==========================================================
tag        meaning
=========  ==========================================================
``S``      UTF-8 string (4-byte length + bytes)
``B``      raw bytes (4-byte length + bytes)
``I``      signed 64-bit integer
``L``      list (4-byte count + encoded items)
``N``      none/nil
``E``      error (4-byte length + UTF-8 message)
``s``      packed list of strings: 4-byte count ``n``, a table of ``n``
           4-byte lengths, then the ``n`` UTF-8 payloads end to end
``b``      packed list of bytes, same layout
=========  ==========================================================

**The packing rule.**  The encoder alone decides, from the value: a
non-empty list (or tuple) whose items are all exactly ``str`` goes out as
``s``, all exactly ``bytes`` as ``b``, anything else as ``L``.  A packed
list decodes to a plain list, so ``decode_message(encode_message(v)) ==
v`` whichever tag carried it; what changes is the cost per item — a slice
at each end instead of a tagged value — which is what lets a Waffle round
move its ``B`` ids and ``B`` ciphertexts as arrays.

A request payload is a list ``[command_name, arg, ...]``.  The storage
server takes four commands and refuses any other name or shape.  The
round's two storage calls carry arrays:

* ``["MGET", id, ...]`` is one ``s`` array of ``str`` ids; the reply is
  the values in order (one ``b`` array), or an error if any id is
  missing.
* ``["COMMIT", deletes, ids, values]`` is an ``L`` of the name and three
  packed arrays: delete every id in ``deletes``, then store ``values[i]``
  under ``ids[i]``, all or nothing.  The reply is the number of ids
  moved (one ``I``), or an error with nothing applied.

and two are introspection: ``["EXISTS", key]`` replies ``1`` or ``0``,
``["DBSIZE"]`` the number of stored ids.
"""

from __future__ import annotations

import ast
import socket
import struct
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Mapping, Sequence, Union, cast

if TYPE_CHECKING:
    import asyncio

from repro.errors import ProtocolError

__all__ = [
    "WireValue",
    "check_command",
    "decode_message",
    "encode_frame",
    "encode_message",
    "read_frame",
    "read_frame_async",
    "write_frame_async",
]

_MAX_FRAME = 64 * 1024 * 1024  # defensive cap: 64 MiB per frame
#: Deepest list nesting a message may carry (real traffic reaches 2): the
#: decoder recurses per level, so a hostile frame must not choose the depth.
_MAX_DEPTH = 32

#: Anything a message is made of.  Decoding gives ``bytes`` for either
#: bytes type, a ``list`` for either sequence type and a
#: :class:`_WireError` for an exception.
WireValue = Union[None, str, bytes, bytearray, int, Sequence["WireValue"],
                  Exception, "_WireError"]

_Buffer = Union[bytes, bytearray]

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_TAG_U32 = struct.Struct(">cI")
_TAG_I64 = struct.Struct(">cq")


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------
def _encode_value(parts: list[_Buffer], value: WireValue) -> None:
    """Append ``value``'s encoding to ``parts``.  Payloads are appended as
    they are, so nothing is copied before the one join that makes the
    message."""
    if value is None:
        parts.append(b"N")
    elif isinstance(value, bool):  # bools are ints; reject explicitly
        raise ProtocolError("booleans are not wire values")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        parts += (_TAG_U32.pack(b"S", len(data)), data)
    elif isinstance(value, (bytes, bytearray)):
        parts += (_TAG_U32.pack(b"B", len(value)), value)
    elif isinstance(value, int):
        parts.append(_TAG_I64.pack(b"I", value))
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {str}:
            _encode_strings(parts, cast("Sequence[str]", value))
        elif kinds == {bytes}:
            _encode_packed(parts, b"b", cast("Sequence[bytes]", value))
        else:
            parts.append(_TAG_U32.pack(b"L", len(value)))
            for item in value:
                _encode_value(parts, item)
    elif isinstance(value, Exception):
        data = f"{type(value).__name__}:{value}".encode("utf-8")
        parts += (_TAG_U32.pack(b"E", len(data)), data)
    else:
        raise ProtocolError(f"cannot encode {type(value).__name__}")


def _encode_packed(parts: list[_Buffer], tag: bytes,
                   payloads: Sequence[bytes]) -> None:
    count = len(payloads)
    parts.append(struct.pack(f">cI{count}I", tag, count,
                             *map(len, payloads)))
    parts += payloads


def _encode_strings(parts: list[_Buffer], items: Sequence[str]) -> None:
    """An ``s`` array: the payloads are one encode of the items joined.
    If that is as many bytes as characters, every item is ASCII and its
    byte length is its length; otherwise each item is encoded to measure
    it."""
    text = "".join(items)
    data = text.encode("utf-8")
    if len(data) != len(text):
        _encode_packed(parts, b"s", [item.encode("utf-8") for item in items])
        return
    count = len(items)
    parts += (struct.pack(f">cI{count}I", b"s", count, *map(len, items)),
              data)


def _encode_parts(value: WireValue) -> list[_Buffer]:
    parts: list[_Buffer] = []
    try:
        _encode_value(parts, value)
    except struct.error as error:  # an integer or a count out of range
        raise ProtocolError(f"value does not fit the wire: {error}") from error
    return parts


def _end(view: memoryview, pos: int, length: int) -> int:
    """Where ``length`` bytes starting at ``pos`` end; they must be there."""
    end = pos + length
    if end > len(view):
        raise ProtocolError("truncated message")
    return end


def _decode_value(view: memoryview, pos: int,
                  depth: int) -> tuple[WireValue, int]:
    """Decode the value at ``pos``: the value and the position after it."""
    head = _end(view, pos, 1)
    tag = chr(view[pos])
    if tag == "N":
        return None, head
    if tag == "I":
        end = _end(view, head, 8)
        return _I64.unpack_from(view, head)[0], end
    if tag not in "SBELsb":
        raise ProtocolError(f"unknown wire tag {tag!r}")
    body = _end(view, head, 4)
    (size,) = _U32.unpack_from(view, head)
    if tag == "L":
        if depth >= _MAX_DEPTH:
            raise ProtocolError("list nesting exceeds depth cap")
        items: list[WireValue] = []
        for _ in range(size):
            item, body = _decode_value(view, body, depth + 1)
            items.append(item)
        return items, body
    if tag in "sb":
        # The length table must be there before its format is built: a
        # hostile count does not get to size an allocation.
        first = _end(view, body, 4 * size)
        cuts = list(accumulate(struct.unpack_from(f">{size}I", view, body),
                               initial=0))
        # The lengths may not sum past the end of the message.
        end = _end(view, first + cuts[-1], 0)
        region = view[first:end]
        spans = zip(cuts, cuts[1:])
        if tag == "b":
            return [region[a:b].tobytes() for a, b in spans], end
        # One decode of the whole region; if it is ASCII, a character
        # offset is a byte offset and the items are slices of it.
        text = str(region, "utf-8")
        if len(text) == len(region):
            return [text[a:b] for a, b in spans], end
        return [str(region[a:b], "utf-8") for a, b in spans], end
    end = _end(view, body, size)
    if tag == "B":
        return view[body:end].tobytes(), end
    text = str(view[body:end], "utf-8")
    return (text if tag == "S" else _WireError(text)), end


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
        if name in ("KeyNotFoundError", "DuplicateKeyError"):
            # detail is "key not found: " + repr(key); parse the repr back
            # exactly, so a key with a quote or an escape survives the trip.
            text = detail.split(": ", 1)[-1]
            try:
                key = ast.literal_eval(text)
            except (ValueError, TypeError, SyntaxError, MemoryError,
                    RecursionError):  # not a literal: keep the text
                key = text
            raise (KeyNotFoundError if name == "KeyNotFoundError"
                   else DuplicateKeyError)(key)
        if name == "OverloadedError":
            # Retryable by taxonomy: the request was shed before it
            # reached the proxy (is_retryable() returns True).
            raise OverloadedError(detail.strip() or "server overloaded")
        raise StorageError(self.message)


def check_command(commands: Mapping[str, tuple[type, ...]], name: Any,
                  args: Sequence[Any]) -> None:
    """Refuse, with a :class:`~repro.errors.ProtocolError`, a command that
    ``commands`` does not name or whose arguments are not exactly the
    types it lists for that name."""
    types = commands.get(name) if isinstance(name, str) else None
    if types is None:
        raise ProtocolError(f"unknown command {name!r}")
    if len(args) != len(types) or any(
            type(arg) is not kind for arg, kind in zip(args, types)):
        raise ProtocolError(f"{name} takes " + (", ".join(
            kind.__name__ for kind in types) or "no arguments"))


def encode_message(value: WireValue) -> bytes:
    """Encode one message (a value tree) to payload bytes."""
    return b"".join(_encode_parts(value))


def encode_frame(value: WireValue) -> bytes:
    """Encode one message as a whole frame, header included, ready for a
    single ``sendall``.  A message over the size cap is refused here,
    before any of it can reach a socket."""
    parts = _encode_parts(value)
    size = sum(map(len, parts))
    if size > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    return b"".join([_U32.pack(size), *parts])


def decode_message(payload: _Buffer) -> WireValue:
    """Decode payload bytes back into a value tree; whatever is wrong with
    a malformed payload, it raises :class:`~repro.errors.ProtocolError`."""
    view = memoryview(payload)
    try:
        value, end = _decode_value(view, 0, 0)
    except UnicodeDecodeError as error:
        raise ProtocolError(f"malformed UTF-8 in message: {error}") from error
    if end != len(view):
        raise ProtocolError("trailing bytes after message")
    return value


# ----------------------------------------------------------------------
# framing over a socket
# ----------------------------------------------------------------------
def _read_exact(sock: socket.socket, count: int) -> _Buffer:
    """Exactly ``count`` bytes: the one ``recv`` when it brings them all,
    otherwise one buffer of the final size that the rest is received into."""
    data = sock.recv(count)
    if len(data) == count:
        return data
    buffer = bytearray(count)
    view = memoryview(buffer)
    view[:len(data)] = data
    filled = received = len(data)
    while received and filled < count:
        received = sock.recv_into(view[filled:])
        filled += received
    if filled < count:
        raise ConnectionError("peer closed the connection")
    return buffer


def read_frame(sock: socket.socket) -> _Buffer:
    """Receive one length-prefixed frame."""
    (length,) = _U32.unpack(_read_exact(sock, 4))
    if length > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    return _read_exact(sock, length)


# ----------------------------------------------------------------------
# framing over asyncio streams (the serving frontend's transport)
# ----------------------------------------------------------------------
async def write_frame_async(writer: "asyncio.StreamWriter",
                            payload: bytes) -> None:
    """Send one length-prefixed frame on an ``asyncio.StreamWriter``."""
    if len(payload) > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    # One call into the transport: a gathered send where asyncio has one
    # (3.12+), otherwise its own join; never a header in a segment alone.
    writer.writelines((_U32.pack(len(payload)), payload))
    await writer.drain()


async def read_frame_async(reader: "asyncio.StreamReader") -> bytes:
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
    (length,) = _U32.unpack(header)
    if length > _MAX_FRAME:
        raise ProtocolError("frame exceeds size cap")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("peer closed mid-frame") from error
