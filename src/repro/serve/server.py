"""The long-lived serving endpoint: framed get/put over asyncio streams.

:class:`ServeServer` binds an :class:`~repro.serve.frontend.AsyncFrontend`
to a TCP listener speaking the :mod:`repro.net.protocol` framing.  One
lightweight task per connection; each connection processes its frames
sequentially (one in-flight request per connection, matching
:class:`repro.net.client.RemoteStore`'s per-connection ordering), while
concurrency comes from many connections — the fan-in the frontend
coalesces into rounds.

Commands (requests are ``["NAME", args...]`` value trees):

=========  =====================================  =======================
command    arguments                              reply
=========  =====================================  =======================
``GET``    key                                    value bytes
``PUT``    key, value bytes                       ``b"OK"``
``PING``   —                                      ``b"PONG"``
``STATS``  —                                      ``[admitted, shed,
                                                  depth, high_water,
                                                  rounds]``
=========  =====================================  =======================

A command whose arguments are not what the table says — a missing or
extra argument, a key that is not ``str``, a value that is not
``bytes`` — is answered with a ``ProtocolError`` wire error before
anything is admitted, and the connection stays usable.

Failure behaviour is the battery's whole point:

* a **shed** request surfaces as a wire error named ``OverloadedError``
  (the client stub re-raises the retryable taxonomy type);
* a **slow-loris** peer (stalling mid-frame) pends inside its own
  connection task; rounds keep firing for everyone else;
* a peer that **disconnects mid-round** merely loses its reply — the
  round thread owns round execution, so the round commits and every other
  waiter resolves normally (the write failure is swallowed per
  connection).
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import ProtocolError
from repro.net.protocol import (
    WireValue,
    check_command,
    decode_message,
    encode_message,
    read_frame_async,
    write_frame_async,
)
from repro.obs import OBS
from repro.serve.frontend import AsyncFrontend

__all__ = ["ServeServer"]

#: The commands and the argument types each one takes.
_COMMANDS: dict[str, tuple[type, ...]] = {
    "GET": (str,), "PUT": (str, bytes), "PING": (), "STATS": (),
}


class ServeServer:
    """Serve an :class:`AsyncFrontend` over TCP.

    Parameters
    ----------
    frontend:
        The coalescing core to expose (not yet started; :meth:`start`
        starts both).
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    """

    def __init__(self, frontend: AsyncFrontend,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.frontend = frontend
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self.address: tuple[str, int] | None = None
        self.connections_total = 0
        self.connections_active = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServeServer":
        await self.frontend.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def stop(self) -> None:
        """Stop accepting, drain in-flight rounds, close the frontend."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.frontend.close()

    async def __aenter__(self) -> "ServeServer":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.connections_total += 1
        self.connections_active += 1
        if OBS.enabled:
            OBS.registry.counter("serve.connections.total").inc()
            OBS.registry.gauge("serve.connections.active").set(
                self.connections_active)
        try:
            while True:
                try:
                    request = decode_message(await read_frame_async(reader))
                except ProtocolError as error:
                    # Undecodable or over the size cap: say so and drop this
                    # peer.  Nothing reaches the frontend; others carry on.
                    try:
                        await write_frame_async(writer, encode_message(error))
                    except (ConnectionError, OSError):
                        pass
                    return
                except (ConnectionError, asyncio.CancelledError, OSError):
                    return
                reply = await self._dispatch(request)
                try:
                    await write_frame_async(writer, encode_message(reply))
                except (ConnectionError, OSError):
                    # Peer died while its round was in flight; the round
                    # itself already committed for everyone else.
                    return
        finally:
            self.connections_active -= 1
            if OBS.enabled:
                OBS.registry.gauge("serve.connections.active").set(
                    self.connections_active)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: WireValue) -> WireValue:
        if not isinstance(request, list) or not request:
            return ValueError("malformed request")
        try:
            return await self._command(*request)
        except Exception as error:  # noqa: BLE001 - errors travel the wire
            return error

    async def _command(self, name: Any, *args: Any) -> WireValue:
        """One command, refused before admission unless its arguments are
        what :data:`_COMMANDS` says: a ``str`` key and a ``bytes`` value."""
        check_command(_COMMANDS, name, args)
        if name == "GET":
            return await self.frontend.get(args[0])
        if name == "PUT":
            await self.frontend.put(args[0], args[1])
            return b"OK"
        if name == "PING":
            return b"PONG"
        stats = self.frontend.stats()
        return [stats["admitted"], stats["shed"], stats["depth"],
                stats["high_water"], stats["rounds"]]
