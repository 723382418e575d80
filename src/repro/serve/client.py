"""The asyncio client stub for :class:`~repro.serve.server.ServeServer`.

A thin, ordered stub: one connection, one in-flight request at a time
(the concurrency tests open N *clients*, not N requests on one client —
matching how the thread-based :class:`repro.net.client.RemoteStore`
multiplies).  Wire errors come back as ``E``-tagged values and are
re-raised as their taxonomy types via :meth:`_WireError.raise_`, so a
shed request surfaces here as the retryable
:class:`~repro.errors.OverloadedError` the caller can back off on.

Replies carry no request id, so a call that fails or is cancelled
between its first byte written and its reply's last byte read closes
the stream: the late reply would otherwise answer the next call.  Every
later call raises :class:`~repro.errors.ConnectionDroppedError`, the
same sticky drop as :class:`repro.net.client.RemoteStore`; recovery is a
new client.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import ConnectionDroppedError
from repro.net.protocol import (
    WireValue,
    _WireError,
    decode_message,
    encode_frame,
    read_frame_async,
)

__all__ = ["AsyncServeClient"]


class AsyncServeClient:
    """Framed request/reply client over an asyncio stream pair."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._dropped = False

    async def connect(self) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request/reply
    # ------------------------------------------------------------------
    async def _call(self, request: list[WireValue]) -> Any:
        if self._dropped:
            raise ConnectionDroppedError("an earlier call dropped this "
                                         "connection")
        if self._reader is None or self._writer is None:
            raise ConnectionError("client is not connected")
        frame = encode_frame(request)  # refused here, nothing is sent
        try:
            self._writer.write(frame)
            await self._writer.drain()
            reply = decode_message(await read_frame_async(self._reader))
        except BaseException:
            # Cancelled or failed mid-exchange: requests and replies no
            # longer line up on this stream.
            self._dropped = True
            self._writer.close()
            raise
        if isinstance(reply, _WireError):
            reply.raise_()
        return reply

    async def get(self, key: str) -> bytes:
        return await self._call(["GET", key])

    async def put(self, key: str, value: bytes) -> None:
        await self._call(["PUT", key, value])

    async def ping(self) -> bytes:
        return await self._call(["PING"])

    async def stats(self) -> dict:
        admitted, shed, depth, high_water, rounds = await self._call(["STATS"])
        return {"admitted": admitted, "shed": shed, "depth": depth,
                "high_water": high_water, "rounds": rounds}
