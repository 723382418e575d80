"""A StorageBackend that talks to a remote StorageServer.

Drop-in: ``WaffleDatastore(config, items, store=RemoteStore(addr))``
deploys the paper's topology with the storage server on another machine
(or another process/thread — the tests use localhost).
"""

from __future__ import annotations

import socket
import threading
from typing import Iterable, Sequence, TypeVar

from repro.errors import (
    ConnectionDroppedError,
    PartialReplyError,
    ProtocolError,
    StorageTimeoutError,
)
from repro.net import protocol
from repro.net.protocol import (
    WireValue,
    _WireError,
    decode_message,
    encode_frame,
    read_frame,
)
from repro.storage.base import StorageBackend

__all__ = ["RemoteStore"]

_T = TypeVar("_T")


def _expect(reply: WireValue, kind: type[_T]) -> _T:
    if not isinstance(reply, kind):
        raise ProtocolError(f"expected a {kind.__name__} reply, "
                            f"got {type(reply).__name__}")
    return reply


class RemoteStore(StorageBackend):
    """Client-side stub speaking the framed storage protocol.

    Thread-safe: one in-flight request at a time per connection, guarded
    by a lock (matching the synchronous proxy's usage).

    A request that fails anywhere between its first byte sent and its
    reply's last byte read closes the connection, and every later call
    raises :class:`~repro.errors.ConnectionDroppedError`: replies carry no
    request id, so a reply that shows up late would otherwise be handed
    to the next caller.  Recovery is a new ``RemoteStore``.
    """

    def __init__(self, address: tuple[str, int],
                 timeout_s: float = 10.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _call(self, message: WireValue) -> WireValue:
        # A message the codec refuses (over the frame cap, unencodable)
        # fails here with nothing sent and the connection intact.
        frame = encode_frame(message)
        # Socket failures map onto the library taxonomy so callers can
        # tell retryable transport faults from fatal protocol breaks.
        with self._lock:
            try:
                self._sock.sendall(frame)
                reply = decode_message(read_frame(self._sock))
            except (OSError, ProtocolError) as error:
                # Requests and replies no longer line up on this socket.
                # Closed, it fails every later send: the drop is sticky.
                self.close()
                if isinstance(error, ProtocolError):
                    raise
                if isinstance(error, TimeoutError):
                    raise StorageTimeoutError(
                        f"no reply within {self._sock.gettimeout()}s"
                    ) from error
                raise ConnectionDroppedError(str(error)) from error
        if isinstance(reply, _WireError):
            reply.raise_()
        return reply

    def _commit(self, deletes: list[str], ids: list[str],
                values: list[bytes]) -> None:
        if deletes or ids:
            self._call(["COMMIT", deletes, ids, values])

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------
    def get(self, key: str) -> bytes:
        return _expect(self._call(["GET", key]), bytes)

    def put(self, key: str, value: bytes) -> None:
        self._call(["SET", key, value])

    def delete(self, key: str) -> None:
        self._call(["DEL", key])

    def __contains__(self, key: str) -> bool:
        return bool(self._call(["EXISTS", key]))

    def __len__(self) -> int:
        return _expect(self._call(["DBSIZE"]), int)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        if not keys:
            return []
        replies = _expect(self._call(["MGET", *keys]), list)
        if len(replies) != len(keys):
            raise PartialReplyError(expected=len(keys), got=len(replies))
        return replies

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        # An initial load ships all N+D-C objects through here, which can
        # exceed the frame cap: cut a new COMMIT frame whenever the next
        # object (id, value and their two length-table entries) would push
        # the payload past three quarters of the cap.  A load that fits
        # goes as one frame; unlike commit_round, a load that does not is
        # not atomic across its frames.
        budget = protocol._MAX_FRAME * 3 // 4
        ids: list[str] = []
        values: list[bytes] = []
        size = 0
        for key, value in items:
            cost = 8 + len(key.encode("utf-8")) + len(value)
            if ids and size + cost > budget:
                self._commit([], ids, values)
                ids, values, size = [], [], 0
            ids.append(key)
            values.append(value)
            size += cost
        self._commit([], ids, values)

    def multi_delete(self, keys: Sequence[str]) -> None:
        self._commit(list(keys), [], [])

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # The whole round commit is one frame, applied by the server in a
        # single dispatch or not at all: a frame over the cap is refused
        # here, and a connection lost before it is sent leaves the round
        # entirely unapplied.
        self._commit(list(deletes), [key for key, _ in puts],
                     [value for _, value in puts])
