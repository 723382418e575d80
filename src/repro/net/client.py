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

#: Payload bytes per frame of a ``multi_put`` load: small enough that the
#: producer and the server each hold about a megabyte of it at a time,
#: large enough that the per-frame round of syscalls is noise.
_LOAD_FRAME = 1024 * 1024


def _expect(reply: WireValue, kind: type[_T]) -> _T:
    if not isinstance(reply, kind):
        raise ProtocolError(f"expected a {kind.__name__} reply, "
                            f"got {type(reply).__name__}")
    return reply


class RemoteStore(StorageBackend):
    """Client-side stub speaking the framed storage protocol.

    Thread-safe: one in-flight request at a time per connection, guarded
    by a lock (matching the synchronous proxy's usage).

    **A round commit is handed over, not waited for.**
    :meth:`commit_round` returns once its ``COMMIT`` frame is written; the
    acknowledgement is *owed*, and the next call on the connection —
    whatever it is, :meth:`flush` and :meth:`close` included — reads and
    checks it before sending anything of its own.  The storage server can
    apply round r while the proxy answers its clients and plans round
    r + 1 (the paper's background write-back, §6.2) — when the scheduler
    runs the two processes on different CPUs, which it does not always do
    (DESIGN.md §6 "Where the commit overlaps"); the ``MGET`` is waited for
    either way.  On the wire nothing moves: ``COMMIT r``, its ack, ``MGET
    r+1``, in that order, at most one ack outstanding.  A round the
    server refused therefore surfaces one call late, from a call that has
    sent nothing, with the connection still in step and — the server
    checks a round whole before touching anything — nothing of the round
    applied.  A caller that must know the round is in calls :meth:`flush`.

    :meth:`multi_put` streams a load the same way: frames of about a
    megabyte, each one's acknowledgement collected by the next one's send,
    one :meth:`flush` after the last, so the load is in when it returns.

    A request that fails anywhere between its first byte sent and its
    reply's last byte read — a deferred acknowledgement included — closes
    the connection, and every later call raises
    :class:`~repro.errors.ConnectionDroppedError`: replies carry no
    request id, so a reply that shows up late would otherwise be handed
    to the next caller.  Recovery is a new ``RemoteStore``.
    """

    def __init__(self, address: tuple[str, int],
                 timeout_s: float = 10.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        #: How many ids the one unacknowledged ``COMMIT`` moved (what its
        #: ack has to say), or ``None`` when nothing is owed.
        self._owed: int | None = None
        #: Set by the first failure on the wire; what makes the drop sticky
        #: for a call that would not touch the socket (a flush, nothing owed).
        self._dropped = False

    def flush(self) -> None:
        """Return once the server has acknowledged the last round handed
        to :meth:`commit_round`, raising what it refused."""
        self._exchange(None)

    def close(self) -> None:
        """Collect the last acknowledgement, then close the socket; what
        the server refused is raised once the socket is closed.  A dropped
        connection has said what went wrong already and closes quietly."""
        try:
            if not self._dropped:
                self.flush()
        finally:
            self._drop()

    def _drop(self) -> None:
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
    def _exchange(self, frame: bytes | None,
                  ack: int | None = None) -> WireValue:
        """Every use of the socket, in the one order they all keep: collect
        the acknowledgement the last ``COMMIT`` is owed, send ``frame``,
        read its reply.  A ``COMMIT`` passes ``ack``, the count its
        acknowledgement must state, and leaves that owed instead of
        reading it; ``frame=None`` sends nothing (a flush).
        """
        with self._lock:
            owed, self._owed = self._owed, None
            try:
                if self._dropped:
                    raise ConnectionError("an earlier failure dropped "
                                          "this connection")
                if owed is not None:
                    reply = decode_message(read_frame(self._sock))
                    if isinstance(reply, _WireError):
                        # The server refused the round: nothing applied,
                        # nothing sent here, both ends in step.  Not a
                        # transport failure, so the connection is kept.
                        reply.raise_()
                    if reply != owed:  # b"OK", a list, another round's count
                        raise ProtocolError(f"COMMIT of {owed} ids "
                                            f"acknowledged with {reply!r}")
                if frame is None:
                    return None
                self._sock.sendall(frame)
                if ack is not None:
                    self._owed = ack
                    return None
                return decode_message(read_frame(self._sock))
            except (OSError, ProtocolError) as error:
                # Requests and replies no longer line up on this socket.
                # Closed, it fails every later send: the drop is sticky,
                # and a reply still on its way is never read.  Socket
                # failures map onto the library taxonomy so callers can
                # tell retryable transport faults from fatal protocol
                # breaks.
                self._dropped = True
                self._drop()
                if isinstance(error, ProtocolError):
                    raise
                if isinstance(error, TimeoutError):
                    raise StorageTimeoutError(
                        f"no reply within {self._sock.gettimeout()}s"
                    ) from error
                raise ConnectionDroppedError(str(error)) from error

    def _call(self, message: WireValue) -> WireValue:
        # A message the codec refuses (over the frame cap, unencodable)
        # fails here with nothing sent and the connection intact.
        reply = self._exchange(encode_frame(message))
        if isinstance(reply, _WireError):
            reply.raise_()
        return reply

    def _commit(self, deletes: list[str], ids: list[str],
                values: list[bytes]) -> None:
        """Hand one ``COMMIT`` over: written on return, not yet answered."""
        if deletes or ids:
            self._exchange(encode_frame(["COMMIT", deletes, ids, values]),
                           ack=len(deletes) + len(ids))

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------
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
        # An initial load streams all N+D-C objects through here: they are
        # pulled from ``items`` one frame's worth at a time, and a COMMIT
        # frame is cut whenever the next object (id, value and their two
        # length-table entries) would push the payload past the budget.
        # No frame waits for its acknowledgement: the next frame's send
        # collects it (class docstring), so the server ingests frame k
        # while the caller's iterator produces frame k + 1, and the one
        # flush at the end means the load is in when this returns.  A
        # frame the server refuses is raised by the send that would have
        # followed it, or by that flush: nothing after it is sent, the
        # connection stays in step, and the frames before it stay applied
        # — unlike commit_round, a load of several frames is not atomic.
        budget = min(_LOAD_FRAME, protocol._MAX_FRAME * 3 // 4)
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
        self.flush()

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # The whole round commit is one frame, applied by the server in a
        # single dispatch or not at all: a frame over the cap is refused
        # here, and a connection lost before it is sent leaves the round
        # entirely unapplied.  Not waited for: the next call collects the
        # server's verdict (class docstring).
        self._commit(list(deletes), [key for key, _ in puts],
                     [value for _, value in puts])
