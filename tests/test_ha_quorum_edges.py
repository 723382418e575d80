"""Edge paths of the replicated proxy and stale-snapshot promotion.

Complements ``tests/test_ha.py`` (happy paths and basic failure modes)
with the corners the chaos harness leans on: promotion at exactly the
quorum threshold, membership churn around failed standbys, pending
mutations captured inside standby snapshots, and what actually breaks
when a *stale* snapshot is promoted against a server that has moved on
(the scenario shipping after every batch exists to prevent).
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    ProtocolError,
)
from repro.ha import ReplicatedProxy, capture_proxy, restore_proxy
from repro.workloads.trace import Operation
from tests.conftest import make_items

CONFIG = WaffleConfig(n=200, b=20, r=8, f_d=4, d=60, c=30,
                      value_size=64, seed=5)


def build_datastore():
    return WaffleDatastore(CONFIG, make_items(CONFIG.n),
                           keychain=KeyChain.from_seed(6))


def read_batch(rng):
    return [ClientRequest(op=Operation.READ,
                          key=f"user{rng.randrange(CONFIG.n):08d}")
            for _ in range(CONFIG.r)]


class TestQuorumThresholds:
    def test_promotion_at_exact_threshold(self):
        # group=3, quorum=3: every member must hold the snapshot, so a
        # single standby failure stops the group...
        group = ReplicatedProxy(build_datastore(), standbys=2, quorum=3)
        rng = random.Random(1)
        group.execute_batch(read_batch(rng))
        group.fail_standby(0)
        with pytest.raises(ProtocolError, match="quorum lost"):
            group.execute_batch(read_batch(rng))
        # ...but promotion still works off the surviving standby, and a
        # replacement restores the acknowledgement threshold exactly.
        group.fail_over()
        group.restore_standby(0)
        responses = group.execute_batch(read_batch(rng))
        assert len(responses) == CONFIG.r

    def test_quorum_equal_to_group_size_is_fragile_by_design(self):
        # The default group is primary-secondary: one standby, and the
        # majority of two is both members.
        group = ReplicatedProxy(build_datastore())
        assert (group.quorum, group.alive_standbys) == (2, 1)
        rng = random.Random(2)
        group.execute_batch(read_batch(rng))
        group.fail_standby(0)
        with pytest.raises(ProtocolError):
            group.execute_batch(read_batch(rng))

    def test_minority_quorum_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicatedProxy(build_datastore(), standbys=2, quorum=4)
        with pytest.raises(ConfigurationError):
            ReplicatedProxy(build_datastore(), standbys=2, quorum=0)


class TestStandbyChurn:
    def test_fail_standby_on_already_failed_raises(self):
        group = ReplicatedProxy(build_datastore(), standbys=2)
        group.fail_standby(1)
        with pytest.raises(ProtocolError, match="already failed"):
            group.fail_standby(1)
        # The error did not corrupt membership: standby 0 still counts.
        assert group.alive_standbys == 1

    def test_restore_after_failover_tracks_new_primary(self):
        group = ReplicatedProxy(build_datastore(), standbys=2)
        rng = random.Random(3)
        group.execute_batch(read_batch(rng))
        group.fail_standby(0)
        group.fail_over()
        group.execute_batch(read_batch(rng))
        # The replacement receives the *new* primary's state and is
        # immediately promotable.
        group.restore_standby(0)
        old_ts = group.proxy.ts
        group.fail_over()
        assert group.proxy.ts == old_ts
        assert len(group.execute_batch(read_batch(rng))) == CONFIG.r

    def test_restored_standby_snapshot_carries_pending_mutations(self):
        group = ReplicatedProxy(build_datastore(), standbys=1)
        rng = random.Random(4)
        group.execute_batch(read_batch(rng))
        group.datastore.insert("brand-new", b"v")
        group.fail_standby(0)
        group.restore_standby(0)
        # The promoted snapshot was captured after the enqueue.
        group.fail_over()
        assert group.proxy.mutations.has_insert("brand-new")
        assert not group.proxy.mutations.has_insert("never-seen")

    def test_failed_standby_does_not_ack(self):
        group = ReplicatedProxy(build_datastore(), standbys=2)
        rng = random.Random(5)
        group.fail_standby(0)
        group.execute_batch(read_batch(rng))
        # Promotion must come from the standby that kept acknowledging,
        # not the failed one's empty blob.
        promoted = group.fail_over()
        assert promoted.ts == 1


class TestStaleSnapshotPromotion:
    def test_stale_promotion_rederives_consumed_ids(self):
        """Why the group ships after every batch: a snapshot one batch
        stale deterministically replays storage ids the server already
        consumed and deleted."""
        datastore = build_datastore()
        blob = capture_proxy(datastore.proxy)
        rng = random.Random(6)
        batch = read_batch(rng)
        datastore.execute_batch(batch)
        datastore.proxy = restore_proxy(blob, datastore.proxy.store)
        # The restored proxy believes the batch never ran; re-running it
        # re-derives the same read ids, which the committed round already
        # deleted from the server.
        with pytest.raises(KeyNotFoundError):
            datastore.execute_batch(batch)

    def test_synchronous_interval_promotion_replays_cleanly(self):
        """Control for the stale case: the snapshot shipped after the
        batch promotes and carries on — the chaos harness's recovery
        path."""
        ha = ReplicatedProxy(build_datastore())
        rng = random.Random(6)
        ha.execute_batch(read_batch(rng))
        promoted = ha.fail_over()
        assert ha.datastore.proxy is promoted
        batch = read_batch(rng)
        responses = ha.datastore.execute_batch(batch)
        assert len(responses) == CONFIG.r
