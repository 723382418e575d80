"""A StorageBackend that talks to a remote StorageServer.

Drop-in: ``WaffleDatastore(config, items, store=RemoteStore(addr))``
deploys the paper's topology with the storage server on another machine
(or another process/thread — the tests use localhost).
"""

from __future__ import annotations

import socket
import threading
from typing import Iterable, Sequence

from repro.errors import (
    ConnectionDroppedError,
    PartialReplyError,
    StorageTimeoutError,
)
from repro.net import protocol
from repro.net.protocol import (
    _WireError,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.storage.base import StorageBackend

__all__ = ["RemoteStore"]

#: Encoded size of ``["SET", key, value]`` beyond the key and value bytes
#: (list header 5, ``S"SET"`` 8, string header 5, bytes header 5).
_SET_OVERHEAD = 23


class RemoteStore(StorageBackend):
    """Client-side stub speaking the framed storage protocol.

    Thread-safe: one in-flight request at a time per connection, guarded
    by a lock (matching the synchronous proxy's usage).
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

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _call(self, message):
        # Socket failures map onto the library taxonomy so callers can
        # tell retryable transport faults from fatal protocol breaks.
        try:
            with self._lock:
                write_frame(self._sock, encode_message(message))
                reply = decode_message(read_frame(self._sock))
        except TimeoutError as error:
            raise StorageTimeoutError(
                f"no reply within {self._sock.gettimeout()}s"
            ) from error
        except ConnectionError as error:
            raise ConnectionDroppedError(str(error)) from error
        if isinstance(reply, _WireError):
            reply.raise_()
        return reply

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------
    def get(self, key: str) -> bytes:
        return self._call(["GET", key])

    def put(self, key: str, value: bytes) -> None:
        self._call(["SET", key, bytes(value)])

    def delete(self, key: str) -> None:
        self._call(["DEL", key])

    def __contains__(self, key: str) -> bool:
        return bool(self._call(["EXISTS", key]))

    def __len__(self) -> int:
        return self._call(["DBSIZE"])

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        if not keys:
            return []
        commands = [["GET", key] for key in keys]
        replies = self._call(["PIPELINE", *commands])
        if isinstance(replies, _WireError):  # pragma: no cover
            replies.raise_()
        if len(replies) != len(keys):
            raise PartialReplyError(expected=len(keys), got=len(replies))
        return replies

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        # An initial load ships all N+D-C objects through here, which can
        # exceed the frame cap: cut a new PIPELINE frame whenever the next
        # SET would push the payload past three quarters of the cap.  A
        # load that fits goes as one frame; unlike commit_round, a load
        # that does not is not atomic across its frames.
        budget = protocol._MAX_FRAME * 3 // 4
        commands: list[list] = []
        size = 0
        for key, value in items:
            cost = _SET_OVERHEAD + len(key.encode("utf-8")) + len(value)
            if commands and size + cost > budget:
                self._call(["PIPELINE", *commands])
                commands, size = [], 0
            commands.append(["SET", key, bytes(value)])
            size += cost
        if commands:
            self._call(["PIPELINE", *commands])

    def multi_delete(self, keys: Sequence[str]) -> None:
        commands = [["DEL", key] for key in keys]
        if commands:
            self._call(["PIPELINE", *commands])

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # Ship the whole round commit as one pipeline frame: the server
        # applies it within a single dispatch, so a connection lost before
        # the frame is sent leaves the round entirely unapplied.
        commands = [["DEL", key] for key in deletes]
        commands += [["SET", key, bytes(value)] for key, value in puts]
        if commands:
            self._call(["PIPELINE", *commands])
