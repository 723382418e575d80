"""Replicated proxy: a primary and a group of standbys.

§3.1: proxy availability "can be ensured with techniques such as a
primary-secondary replication or a quorum replication".  Both are one
class here — primary-secondary is the group with one standby.

The group replicates a :class:`~repro.core.datastore.WaffleDatastore`
(whose proxy is the primary): the primary executes every batch; at each
batch boundary one full state snapshot ships to every live standby
(state shipping rather than command replay, because replaying Algorithm
1 would re-issue server I/O whose storage ids have already been consumed
— each id is read-once).  A batch is acknowledged only once a write
quorum (majority by default; the primary counts) holds it, so promoting
any live standby never resumes from a state older than the last
acknowledged batch.  On :meth:`ReplicatedProxy.fail_over` the promoted
snapshot becomes the datastore's proxy on the same untrusted server and
processing continues with no client-visible difference: linearizability,
the write-once/read-once id lifecycle and the α/β bounds all carry
across (verified by the tests).

Standby failures are simulated with :meth:`ReplicatedProxy.fail_standby`;
the group refuses new batches once fewer than ``quorum - 1`` standbys
remain.
"""

from __future__ import annotations

import time

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import WaffleProxy
from repro.errors import ConfigurationError, ProtocolError
from repro.ha.checkpoint import capture_proxy, restore_proxy
from repro.obs import OBS
from repro.storage.base import StorageBackend

__all__ = ["ReplicatedProxy"]


class ReplicatedProxy:
    """A proxy replica group with synchronous batch-boundary shipping.

    Parameters
    ----------
    datastore:
        The initialized deployment; its proxy is the primary.
    standbys:
        Number of standby replicas (group = standbys + 1); one standby
        is primary-secondary replication.
    quorum:
        Members (including the primary) that must hold a snapshot before
        a batch acknowledges; defaults to a majority of the group.
    """

    def __init__(self, datastore: WaffleDatastore, standbys: int = 1,
                 quorum: int | None = None) -> None:
        if standbys < 1:
            raise ConfigurationError("need at least one standby")
        group_size = standbys + 1
        self.quorum = quorum if quorum is not None else group_size // 2 + 1
        if not 1 <= self.quorum <= group_size:
            raise ConfigurationError(
                f"quorum must lie in [1, {group_size}]"
            )
        self.datastore = datastore
        #: standby id -> latest acknowledged snapshot (None once failed)
        self._standbys: list[bytes | None] = \
            [capture_proxy(datastore.proxy)] * standbys
        self.failovers = 0
        self.acknowledged_batches = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def proxy(self) -> WaffleProxy:
        """The current primary (changes after fail-over)."""
        return self.datastore.proxy

    @property
    def alive_standbys(self) -> int:
        return sum(blob is not None for blob in self._standbys)

    def _member(self, standby_id: int) -> int:
        if not 0 <= standby_id < len(self._standbys):
            raise ProtocolError(
                f"no standby {standby_id} in a group of "
                f"{len(self._standbys)}")
        return standby_id

    def fail_standby(self, standby_id: int) -> None:
        """A standby machine dies (its snapshot is lost with it)."""
        if self._standbys[self._member(standby_id)] is None:
            raise ProtocolError(f"standby {standby_id} already failed")
        self._standbys[standby_id] = None

    def restore_standby(self, standby_id: int) -> None:
        """A replacement standby joins and receives the current state."""
        self._standbys[self._member(standby_id)] = capture_proxy(self.proxy)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def execute_batch(self, requests: list[ClientRequest],
                      ) -> list[ClientResponse]:
        """Execute one batch through the datastore (unpadded, answered early
        if a serving round asked), then replicate to a quorum before acking."""
        if 1 + self.alive_standbys < self.quorum:
            raise ProtocolError(
                f"quorum lost: {1 + self.alive_standbys} of "
                f"{self.quorum} required members alive"
            )
        responses = self.datastore.execute_batch(requests)
        if OBS.enabled:
            start = time.perf_counter()
            blob = capture_proxy(self.proxy)
            OBS.observe_span("ha.checkpoint", time.perf_counter() - start,
                             bytes=len(blob))
            OBS.registry.counter("ha.snapshots.total").inc()
        else:
            blob = capture_proxy(self.proxy)
        self._standbys = [blob if held is not None else None
                          for held in self._standbys]
        self.acknowledged_batches += 1
        return responses

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def fail_over(self, store: StorageBackend | None = None) -> WaffleProxy:
        """The primary dies; the first live standby's snapshot becomes the
        datastore's proxy.

        ``store`` is the new primary's server handle; it defaults to the
        old primary's (the server survived, the proxy did not).
        """
        blob = next((held for held in self._standbys if held is not None),
                    None)
        if blob is None:
            raise ProtocolError("no alive standby to promote")
        target_store = store if store is not None else self.proxy.store
        promoted = self.datastore.proxy = restore_proxy(blob, target_store)
        self.failovers += 1
        if OBS.enabled:
            OBS.registry.counter("ha.failovers.total").inc()
            OBS.event("ha.failover", round=promoted.ts)
        return promoted
