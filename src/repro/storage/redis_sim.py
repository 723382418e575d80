"""A Redis-like in-process key-value server.

The paper's backend is Redis (§8).  ``RedisSim`` is the one in-process
store: the slice of Redis the systems use — the batched calls a round is
made of, plus EXISTS and DBSIZE — as the
:class:`~repro.storage.base.StorageBackend` methods over one dictionary.
Over TCP, :class:`~repro.net.server.StorageServer` serves the same
methods.  Each call takes one pass per batch, validates a whole batch of
mutations before applying any (all or nothing, through
:func:`~repro.storage.base.check_commit`), and counts one Redis command
per id: ``GET`` per id read, ``DEL`` per id deleted, ``SET`` per id
written.

Unlike real Redis, a read of a missing key raises instead of returning
nil: every system in this repository treats a miss as a protocol bug and
the strictness has caught several during development.  (Waffle additionally
runs the store in ``write_once`` mode.)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import KeyNotFoundError
from repro.obs import OBS
from repro.storage.base import StorageBackend, check_commit

__all__ = ["RedisSim"]


class RedisSim(StorageBackend):
    """In-process Redis stand-in.

    Parameters
    ----------
    write_once:
        Reject a write of an existing key (Waffle's server mode).
    """

    __slots__ = ("_data", "_write_once")

    def __init__(self, write_once: bool = False) -> None:
        self._data: dict[str, bytes] = {}
        self._write_once = write_once

    @staticmethod
    def _count(name: str, commands: int = 1) -> None:
        if OBS.enabled and commands:
            OBS.registry.counter("storage.commands.total", backend="redis_sim",
                                 command=name).inc(commands)

    def __contains__(self, key: str) -> bool:
        self._count("EXISTS")
        return key in self._data

    def __len__(self) -> int:
        self._count("DBSIZE")
        return len(self._data)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        self._count("GET", len(keys))
        try:
            return list(map(self._data.__getitem__, keys))
        except KeyError as error:
            raise KeyNotFoundError(error.args[0]) from None

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        self.commit_round((), list(items))

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # All or nothing: a batch that would fail part-way is refused
        # before its first delete.
        self._count("DEL", len(deletes))
        self._count("SET", len(puts))
        data, writes = self._data, dict(puts)
        check_commit(data.keys(), self._write_once, deletes,
                     [key for key, _ in puts])
        for key in deletes:
            del data[key]
        data.update(writes)
