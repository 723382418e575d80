"""A Redis-like in-process key-value server.

The paper's backend is Redis (§8).  ``RedisSim`` reproduces the slice of
Redis the systems use — string GET/SET/DEL/EXISTS/DBSIZE plus MGET/MSET —
behind a textual command interface, so the proxies in this repository
interact with storage the way the paper's proxies interact with Redis: by
issuing commands, batched into one round trip.

Two layers are exposed:

* :meth:`execute` — a command dispatcher (``("SET", key, value)`` etc.),
  the "wire protocol" level for single commands;
* the :class:`~repro.storage.base.StorageBackend` methods — the single-key
  ones are typed wrappers over :meth:`execute`; the batched ones work on
  the dictionary directly (one pass per batch, a whole batch of mutations
  validated before any is applied) and count one command per id.

Unlike real Redis, ``GET`` on a missing key raises instead of returning
nil: every system in this repository treats a miss as a protocol bug and
the strictness has caught several during development.  (Waffle additionally
runs the store in ``write_once`` mode.)
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import DuplicateKeyError, KeyNotFoundError, ProtocolError
from repro.obs import OBS
from repro.storage.base import StorageBackend, check_commit

__all__ = ["RedisSim"]


class RedisSim(StorageBackend):
    """In-process Redis stand-in with command dispatch and batched calls.

    Parameters
    ----------
    write_once:
        Reject ``SET`` on existing keys (Waffle's server mode).
    """

    __slots__ = ("_data", "_write_once", "command_count")

    def __init__(self, write_once: bool = False) -> None:
        self._data: dict[str, bytes] = {}
        self._write_once = write_once
        #: Total commands executed, for tests and cost accounting.
        self.command_count = 0

    # ------------------------------------------------------------------
    # command interface
    # ------------------------------------------------------------------
    def execute(self, command: tuple[Any, ...]) -> Any:
        """Execute one command tuple and return its reply.

        Supported commands: ``GET key``, ``SET key value``, ``DEL key``,
        ``EXISTS key``, ``DBSIZE``, ``MGET key...``, ``MSET key value ...``.
        """
        name = command[0].upper()
        self._count(name, 1)
        if name == "GET":
            (key,) = command[1:]
            try:
                return self._data[key]
            except KeyError:
                raise KeyNotFoundError(key) from None
        if name == "SET":
            key, value = command[1:]
            if self._write_once and key in self._data:
                raise DuplicateKeyError(key)
            self._data[key] = bytes(value)
            return b"OK"
        if name == "DEL":
            (key,) = command[1:]
            try:
                del self._data[key]
            except KeyError:
                raise KeyNotFoundError(key) from None
            return 1
        if name == "EXISTS":
            (key,) = command[1:]
            return int(key in self._data)
        if name == "DBSIZE":
            return len(self._data)
        if name == "MGET":
            return [self.execute(("GET", key)) for key in command[1:]]
        if name == "MSET":
            args = command[1:]
            if len(args) % 2:
                raise ProtocolError("MSET requires key/value pairs")
            for i in range(0, len(args), 2):
                self.execute(("SET", args[i], args[i + 1]))
            return b"OK"
        raise ProtocolError(f"unknown command: {name}")

    def _count(self, name: str, commands: int) -> None:
        self.command_count += commands
        if OBS.enabled and commands:
            OBS.registry.counter("storage.commands.total", backend="redis_sim",
                                 command=name).inc(commands)

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------
    def get(self, key: str) -> bytes:
        return self.execute(("GET", key))

    def put(self, key: str, value: bytes) -> None:
        self.execute(("SET", key, value))

    def delete(self, key: str) -> None:
        self.execute(("DEL", key))

    def __contains__(self, key: str) -> bool:
        return bool(self.execute(("EXISTS", key)))

    def __len__(self) -> int:
        return self.execute(("DBSIZE",))

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        self._count("GET", len(keys))
        data = self._data
        try:
            return [data[key] for key in keys]
        except KeyError as error:
            raise KeyNotFoundError(error.args[0]) from None

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        self.commit_round((), list(items))

    def multi_delete(self, keys: Sequence[str]) -> None:
        self.commit_round(keys, ())

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # All or nothing: a batch that would fail part-way is refused
        # before its first delete.
        self._count("DEL", len(deletes))
        self._count("SET", len(puts))
        data = self._data
        check_commit(data, self._write_once, deletes,
                     (key for key, _ in puts))
        for key in deletes:
            del data[key]
        for key, value in puts:
            data[key] = bytes(value)
