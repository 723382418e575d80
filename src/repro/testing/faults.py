"""Deterministic fault injection for chaos conformance testing.

Waffle's proxy is the single trusted component; §3.1 assumes it is made
fault-tolerant with standard replication, and :mod:`repro.ha` implements
exactly that.  This module supplies the *adversity*: seeded, perfectly
reproducible failures injected into the storage path so the chaos
harness (:mod:`repro.testing.runner`) can prove that correctness and
obliviousness survive them.

Fault model
-----------
All injected faults fire **at the client stub, before the operation
reaches the server** — modelling a connection that cannot be established,
a request that times out on send, or a reply frame that arrives
truncated.  The faulted operation therefore has *no server-visible
effect*: the server state and the adversary-visible trace contain only
operations that genuinely completed.  This is the fault model under
which snapshot-based proxy recovery is sound — the recovered proxy
deterministically replays the aborted round and re-issues the same
storage ids (see ``repro.testing.oracle.check_replay_prefix``).

Every injected exception mixes in :class:`InjectedFault` so the harness
can tell planned adversity apart from genuine bugs: any *other*
exception escaping the system under test fails the episode.

:class:`FaultyStorage` injects per-operation faults from a
:class:`FaultPlan`.  An error, timeout or partial reply fails one
operation and the next proceeds; a drop is sticky, as a real
:class:`~repro.net.client.RemoteStore` socket's is: every later operation
fails with :class:`~repro.errors.ConnectionDroppedError` until
:meth:`FaultyStorage.reconnect`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    ConnectionDroppedError,
    PartialReplyError,
    StorageTimeoutError,
)
from repro.storage.base import PassthroughStore, StorageBackend

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyStorage",
    "InjectedFault",
]


class InjectedFault(Exception):
    """Mixin marking an exception as deliberately injected by a plan.

    Catchable on its own: the chaos runner handles ``except
    InjectedFault`` and treats any *other* exception as a genuine bug.
    """


class InjectedUnavailable(BackendUnavailableError, InjectedFault):
    """Injected per-op transient error (backend refused the request)."""


class InjectedTimeout(StorageTimeoutError, InjectedFault):
    """Injected timeout: the request may or may not have been sent.

    Under this module's fault model it was *not* sent (fail-fast on
    connect), so the server never saw it.
    """


class InjectedDrop(ConnectionDroppedError, InjectedFault):
    """Injected connection drop before the request hit the wire."""


class InjectedPartialReply(PartialReplyError, InjectedFault):
    """Injected short pipelined reply, detected at the framing layer."""


#: kind -> exception factory (op name, batch size -> exception).
_FAULT_FACTORIES = {
    "error": lambda op, size: InjectedUnavailable(
        f"injected backend error on {op}"),
    "timeout": lambda op, size: InjectedTimeout(
        f"injected timeout on {op}"),
    "drop": lambda op, size: InjectedDrop(
        f"injected connection drop on {op}"),
    "partial": lambda op, size: InjectedPartialReply(
        expected=size, got=max(0, size - 1)),
}

FAULT_KINDS = tuple(sorted(_FAULT_FACTORIES))


@dataclass
class FaultPlan:
    """A deterministic schedule of storage faults.

    Faults are keyed by the global storage-operation counter of the
    wrapper consuming the plan: the N-th batched operation (multi_get /
    multi_put / commit_round each count as one) fails with the scheduled
    kind.  Keying by counter makes plans trivially serializable and
    shrinkable — dropping an entry removes exactly one failure.
    """

    #: storage-op index -> fault kind (one of :data:`FAULT_KINDS`).
    faults: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for index, kind in self.faults.items():
            if kind not in _FAULT_FACTORIES:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
            if index < 0:
                raise ConfigurationError("fault indices must be >= 0")

    @classmethod
    def generate(cls, seed: int, horizon_ops: int,
                 rate: float = 0.05,
                 kinds: Sequence[str] = FAULT_KINDS) -> "FaultPlan":
        """Sample a plan: each op index in ``[0, horizon_ops)`` fails
        independently with probability ``rate``, kind chosen uniformly."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("fault rate must lie in [0, 1]")
        rng = random.Random(seed)
        faults = {
            index: rng.choice(list(kinds))
            for index in range(horizon_ops)
            if rng.random() < rate
        }
        return cls(faults=faults)

    def take(self, index: int) -> str | None:
        """The fault scheduled for op ``index``, if any."""
        return self.faults.get(index)

    def __len__(self) -> int:
        return len(self.faults)


class FaultyStorage(PassthroughStore):
    """Client-side storage stub that fails operations per a fault plan.

    Only *operations* consume plan indices — ``__contains__``/``__len__``
    are introspection and never fault.  A faulted operation raises before
    delegating, so the inner backend (and any recorder below it) never
    observes it.  After a planned ``drop`` the connection is down: every
    operation raises :class:`InjectedDrop` without consuming a plan index
    until :meth:`reconnect`.
    """

    def __init__(self, inner: StorageBackend, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        #: Operations attempted while connected (the plan's index space).
        self.ops = 0
        #: Planned faults raised, by kind (telemetry for sweep reports).
        self.injected: dict[str, int] = {}
        self.connected = True

    def reconnect(self) -> None:
        self.connected = True

    def _admit(self, op: str, size: int) -> None:
        if not self.connected:
            raise InjectedDrop(f"connection is down (op {op})")
        index = self.ops
        self.ops += 1
        kind = self.plan.take(index)
        if kind is not None:
            self.connected = kind != "drop"
            self.injected[kind] = self.injected.get(kind, 0) + 1
            raise _FAULT_FACTORIES[kind](op, size)

    def multi_get(self, keys: Sequence[str]) -> list[bytes]:
        self._admit("multi_get", len(keys))
        return self._inner.multi_get(keys)

    def multi_put(self, items: Iterable[tuple[str, bytes]]) -> None:
        items = list(items)
        self._admit("multi_put", len(items))
        self._inner.multi_put(items)

    def commit_round(self, deletes: Sequence[str],
                     puts: Sequence[tuple[str, bytes]]) -> None:
        # One plan index for the whole commit: it either fails before the
        # server sees anything or applies in full (atomic fault point).
        self._admit("commit_round", len(deletes) + len(puts))
        self._inner.commit_round(deletes, puts)
