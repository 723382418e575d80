"""Abstract storage backend: what a round calls.

Every datastore in this repository (Waffle, the insecure baseline, Pancake,
TaoStore) talks to the server through this interface, so the
recording wrapper and the cost model can be layered under any of them.
The server only ever sees batches (Algorithm 1, §6.2): a round is one
:meth:`~StorageBackend.multi_get` and one
:meth:`~StorageBackend.commit_round`, an initial load is one
:meth:`~StorageBackend.multi_put`, and a system that touches one id at a
time sends batches of one.

Semantics are deliberately strict — they encode the invariants the security
analysis relies on:

* a write of a present id raises :class:`DuplicateKeyError` when the
  backend is created with ``write_once=True`` (Waffle writes every storage
  id at most once);
* a read or delete of a missing id raises :class:`KeyNotFoundError` — a
  silent miss would mask protocol bugs.

Backends that model plaintext stores (the insecure baseline, Pancake's
replicas) use ``write_once=False`` and overwrite freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Iterable, Sequence

from repro.errors import DuplicateKeyError, KeyNotFoundError

__all__ = ["PassthroughStore", "StorageBackend", "check_commit"]


def check_commit(present: AbstractSet[str], write_once: bool,
                 deletes: Sequence[str], put_ids: Sequence[str]) -> None:
    """Raise what deleting ``deletes`` and then writing ``put_ids`` would
    raise part-way through, while nothing has been applied yet: a delete
    of an id that is missing or named twice, and on a write-once store a
    write of an id that is present (and not being deleted) or named twice.

    ``present`` is a set view of the stored ids (a dict's ``keys()``): the
    check is a few set operations that each walk the batch, never the
    store, and only a batch they refuse is walked id by id, to name its
    first offender.
    """
    gone = set(deletes)
    if len(gone) < len(deletes) or not present >= gone:
        _raise_first_offender(present, write_once, deletes, put_ids)
    if write_once:
        taken = set(put_ids)
        if len(taken) < len(put_ids) or not present & taken <= gone:
            _raise_first_offender(present, write_once, deletes, put_ids)


def _raise_first_offender(present: AbstractSet[str], write_once: bool,
                          deletes: Iterable[str],
                          put_ids: Iterable[str]) -> None:
    """:func:`check_commit`'s refusal, naming the id a sequential apply
    would have failed on first."""
    gone: set[str] = set()
    for key in deletes:
        if key in gone or key not in present:
            raise KeyNotFoundError(key)
        gone.add(key)
    if write_once:
        taken: set[str] = set()
        for key in put_ids:
            if key in taken or (key in present and key not in gone):
                raise DuplicateKeyError(key)
            taken.add(key)


class StorageBackend(ABC):
    """Key-value server interface shared by all systems: one call per
    batch, so the cost model can charge one round trip per batch.  The
    calls are abstract, because composing one from another would give up
    the all-or-nothing contract of :meth:`commit_round`."""

    @abstractmethod
    def __contains__(self, key: str) -> bool:
        """Whether ``key`` currently exists."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored keys."""

    @abstractmethod
    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        """Return values for ``keys`` in order."""

    @abstractmethod
    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Store every ``(key, value)`` pair."""

    @abstractmethod
    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        """Apply one batch round's mutations: deletes, then writes.

        Waffle's proxy commits all of a round's server mutations through
        this single operation so that a proxy crash mid-round leaves the
        server either untouched by the round or holding its complete
        effect — the property snapshot-based failover recovery relies on
        (a recovered proxy deterministically replays the round, which is
        only safe if the aborted attempt consumed no read-once ids and
        wrote no write-once ids).  That covers a *refused* round too: a
        commit that raises (missing delete, write-once collision) must
        leave the store as it found it.
        :class:`~repro.storage.redis_sim.RedisSim` validates with
        :func:`check_commit` before applying, and the network stub ships
        the round as one frame.

        On return the round has been *handed over*, which need not mean
        applied: the network stub returns once the frame is written and
        lets the server apply it behind the caller's next piece of work.
        A refusal is raised here or by the next call on the store,
        whichever it is, and in both cases nothing was applied.  A caller
        that needs "applied" calls :meth:`flush`.
        """

    def flush(self) -> None:
        """Return once every round handed to :meth:`commit_round` has been
        applied, raising what the store refused.

        A no-op wherever ``commit_round`` applies before it returns, which
        is every in-process backend; wrappers forward it.
        """

    def next_round(self) -> int | None:
        """The round boundary: a batched system calls it once per round,
        before the round's first access.  Nothing to do for a store;
        :class:`~repro.storage.recording.RecordingStore` counts it, and
        wrappers forward it."""
        return None


class PassthroughStore(StorageBackend):
    """A storage wrapper that delegates everything to an inner backend.

    Base class for the recorder, fault injectors and test mutators, which
    override only the calls they change.
    """

    __slots__ = ("_inner",)

    def __init__(self, inner: StorageBackend) -> None:
        self._inner = inner

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        return self._inner.multi_get(keys)

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        self._inner.multi_put(items)

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        self._inner.commit_round(deletes, puts)

    def flush(self) -> None:
        self._inner.flush()

    def next_round(self) -> int | None:
        return self._inner.next_round()
