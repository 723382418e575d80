"""Threaded TCP server hosting a storage backend.

One thread per connection; each connection processes framed requests
sequentially (matching Redis's per-connection ordering guarantee, which
the batched round semantics rely on).  Every command is served through
the :class:`StorageBackend` methods: the round's two bulk commands go
straight to :meth:`StorageBackend.multi_get` and
:meth:`StorageBackend.commit_round`, and EXISTS / DBSIZE to ``in`` and
``len``.  Those four are the whole command set.  A decodable command
that is not one of them, or has the wrong arity or argument types, is
refused whole with a ``ProtocolError`` wire error before the backend sees
any of it, and the connection is kept.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.errors import ProtocolError
from repro.obs import OBS
from repro.net.protocol import (
    WireValue,
    check_command,
    decode_message,
    encode_frame,
    read_frame,
)
from repro.storage.base import StorageBackend
from repro.storage.redis_sim import RedisSim

__all__ = ["StorageServer"]

#: The introspection commands and the argument types each one takes
#: (MGET and COMMIT take arrays, checked by their own methods).
_INTROSPECTION: dict[str, tuple[type, ...]] = {"EXISTS": (str,),
                                               "DBSIZE": ()}


class StorageServer:
    """Serve a :class:`StorageBackend` over TCP.

    Parameters
    ----------
    backend:
        The store to expose; defaults to a fresh :class:`RedisSim`.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    """

    def __init__(self, backend: StorageBackend | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.backend = backend if backend is not None else RedisSim()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: tuple[str, int] = self._listener.getsockname()
        self._stop = threading.Event()
        # Live connection threads only: each removes itself on return.
        self._threads: set[threading.Thread] = set()
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StorageServer":
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - platform dependent
            pass
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2)

    def __enter__(self) -> "StorageServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            with self._lock:  # stop() must only ever see started threads
                self._threads.add(thread)
                thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._serve_frames(conn)
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    def _serve_frames(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request = decode_message(read_frame(conn))
                except ProtocolError as error:
                    # Undecodable or over the size cap: say so and drop this
                    # peer.  Nothing reaches the backend; others carry on.
                    try:
                        conn.sendall(encode_frame(error))
                    except (ConnectionError, OSError):
                        pass
                    return
                except (ConnectionError, OSError):
                    return
                try:
                    frame = encode_frame(self._dispatch(request))
                except ProtocolError as error:  # a reply over the size cap
                    frame = encode_frame(error)
                try:
                    conn.sendall(frame)
                except (ConnectionError, OSError):  # pragma: no cover
                    return

    def _dispatch(self, request: WireValue) -> WireValue:
        if OBS.enabled:
            start = time.perf_counter()
            command = request[0] if isinstance(request, list) and request \
                else "malformed"
            reply = self._dispatch_inner(request)
            duration = time.perf_counter() - start
            OBS.registry.counter("net.requests.total",
                                 command=str(command)).inc()
            OBS.observe_span("net.request", duration,
                             labels={"command": str(command)},
                             commands=_ids_moved(request),
                             error=isinstance(reply, Exception))
            return reply
        return self._dispatch_inner(request)

    def _dispatch_inner(self, request: WireValue) -> WireValue:
        if not isinstance(request, list) or not request:
            return ValueError("malformed request")
        name, args = request[0], request[1:]
        try:
            # Commands execute under a lock: RedisSim is single-threaded
            # just like Redis's command loop.
            with self._lock:
                if name == "MGET":
                    return self._mget(args)
                if name == "COMMIT":
                    return self._commit(*args)
                check_command(_INTROSPECTION, name, args)
                if name == "EXISTS":
                    return int(args[0] in self.backend)
                return len(self.backend)
        except Exception as error:  # noqa: BLE001 - errors travel the wire
            return error

    def _mget(self, ids: list[Any]) -> list[bytes]:
        """One read batch, refused whole unless every id is a ``str``."""
        if not set(map(type, ids)) <= {str}:
            raise ProtocolError("MGET takes str ids")
        return self.backend.multi_get(ids)

    def _commit(self, *arrays: Any) -> int:
        """One round commit, refused whole unless it is three lists:
        ``str`` deletes, ``str`` ids and one ``bytes`` value for each id."""
        if len(arrays) != 3 or not all(isinstance(a, list) for a in arrays):
            raise ProtocolError("COMMIT takes deletes, ids and values")
        deletes, ids, values = arrays
        if (len(ids) != len(values)
                or not set(map(type, deletes + ids)) <= {str}
                or not set(map(type, values)) <= {bytes}):
            raise ProtocolError("COMMIT takes str ids and one bytes value "
                                "for each id it stores")
        self.backend.commit_round(deletes, list(zip(ids, values)))
        return len(deletes) + len(ids)


def _ids_moved(request: WireValue) -> int:
    """How many storage ids a request moves: its span's ``commands=``."""
    if isinstance(request, list) and request:
        if request[0] == "MGET":
            return len(request) - 1
        if request[0] == "COMMIT":
            return sum(len(part) for part in request[1:3]
                       if isinstance(part, list))
    return 1
