"""Plain dictionary-backed storage backend."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage.base import StorageBackend, check_commit

__all__ = ["InMemoryStore"]


class InMemoryStore(StorageBackend):
    """The simplest backend: a dict with the strict interface semantics.

    Parameters
    ----------
    write_once:
        When true, :meth:`put` on an existing key raises
        :class:`DuplicateKeyError`.  Waffle's server is created in this
        mode because its protocol never overwrites a storage id.
    """

    __slots__ = ("_data", "_write_once")

    def __init__(self, write_once: bool = False) -> None:
        self._data: dict[str, bytes] = {}
        self._write_once = write_once

    def get(self, key: str) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def put(self, key: str, value: bytes) -> None:
        if self._write_once and key in self._data:
            raise DuplicateKeyError(key)
        self._data[key] = value

    def delete(self, key: str) -> None:
        try:
            del self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        return [self.get(key) for key in keys]

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        for key, value in items:
            self.put(key, value)

    def multi_delete(self, keys: Sequence[str]) -> None:
        for key in keys:
            self.delete(key)

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # All or nothing: a commit that would fail part-way is refused
        # before its first delete.
        check_commit(self._data, self._write_once, deletes,
                     (key for key, _ in puts))
        for key in deletes:
            del self._data[key]
        self._data.update(puts)
