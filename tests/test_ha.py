"""Tests for proxy checkpointing and replicated failover."""

import copy
import random

import pytest

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.errors import (BackendUnavailableError, ConfigurationError,
                          ProtocolError)
from repro.ha import ReplicatedProxy, capture_proxy, restore_proxy
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.storage import PassthroughStore
from repro.workloads.trace import Operation
from tests.conftest import make_items


CONFIG = WaffleConfig(n=200, b=20, r=8, f_d=4, d=60, c=30,
                      value_size=64, seed=5)


def build_datastore(log_ids: bool = False) -> WaffleDatastore:
    return WaffleDatastore(CONFIG, make_items(CONFIG.n),
                           keychain=KeyChain.from_seed(6), log_ids=log_ids)


def random_batch(rng, write_fraction=0.4):
    batch = []
    for _ in range(CONFIG.r):
        key = f"user{rng.randrange(CONFIG.n):08d}"
        if rng.random() < write_fraction:
            batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                       value=b"w%08d" % rng.randrange(10**8)))
        else:
            batch.append(ClientRequest(op=Operation.READ, key=key))
    return batch


def mutating_batch(datastore, rng, live, round_):
    """Queue one delete of a live key and one insert of a fresh key, and
    return a batch over the keys still live.  The insert is drained by
    the round that runs the batch; its key joins ``live`` after it."""
    batch = []
    for _ in range(CONFIG.r):
        key = live[rng.randrange(len(live))]
        if rng.random() < 0.4:
            batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                       value=b"w%08d" % rng.randrange(10**8)))
        else:
            batch.append(ClientRequest(op=Operation.READ, key=key))
    requested = {request.key for request in batch}
    doomed = next(key for key in live if key not in requested)
    live.remove(doomed)
    datastore.delete(doomed)
    datastore.insert(f"fresh{round_:04d}", b"born")
    live.append(f"fresh{round_:04d}")
    return batch


class TestCheckpoint:
    def test_uninitialized_proxy_rejected(self):
        proxy = WaffleProxy(CONFIG, store=RedisSim(write_once=True))
        with pytest.raises(ProtocolError):
            capture_proxy(proxy)

    def test_restored_proxy_is_behaviourally_identical(self):
        """The acid test: from one checkpoint, the original and the
        restored proxy produce identical responses AND identical server
        access sequences for the same future batches — with inserts and
        deletes drained before the checkpoint and pending across it.  The
        blob is a fixed point: the restored proxy captures to the same
        bytes."""
        datastore = build_datastore()
        proxy, recorder = datastore.proxy, datastore.recorder
        rng = random.Random(7)
        live = [f"user{i:08d}" for i in range(CONFIG.n)]
        for round_ in range(10):
            datastore.execute_batch(
                mutating_batch(datastore, rng, live, round_))
        gone = {f"user{i:08d}" for i in range(CONFIG.n)} - set(live)
        assert len(gone) == 10 and not any(map(proxy.contains_key, gone))
        assert proxy.contains_key("fresh0009")
        mutating_batch(datastore, rng, live, 10)  # queued, not yet drained
        assert proxy.mutations.pending_deletes == 1

        blob = capture_proxy(proxy)
        # Clone the entire server so the twin acts on an identical world.
        twin_store = RecordingStore(copy.deepcopy(recorder._inner))
        twin = copy.copy(datastore)
        twin.proxy = restore_proxy(blob, twin_store)
        assert capture_proxy(twin.proxy) == blob
        twin.proxy.check_invariants()

        rng_a, rng_b = random.Random(8), random.Random(8)
        live_a, live_b = live[:], live[:]
        for round_ in range(11, 21):
            responses_a = datastore.execute_batch(
                mutating_batch(datastore, rng_a, live_a, round_))
            responses_b = twin.execute_batch(
                mutating_batch(twin, rng_b, live_b, round_))
            assert [r.value for r in responses_a] == \
                   [r.value for r in responses_b]
        assert capture_proxy(twin.proxy) == capture_proxy(proxy)
        ids_a = [r.storage_id for r in recorder.records]
        ids_b = [r.storage_id for r in twin_store.records]
        assert ids_a[-200:] == ids_b[-200:]

    def test_indexes_pickled_mid_run_keep_selecting_identically(self):
        """Both timestamp indexes survive a pickle round trip mid-epoch:
        the copies pick the same reals and dummies as the originals,
        across dummy epoch resets (D / f_D = 15 rounds)."""
        import pickle

        datastore = build_datastore()
        proxy = datastore.proxy
        rng = random.Random(12)
        for _ in range(10):
            datastore.execute_batch(random_batch(rng))
        originals = proxy._real_index, proxy._dummy_index
        copies = pickle.loads(pickle.dumps(originals))

        def drive(real, dummy):
            log = []
            for ts in range(proxy.ts + 1, proxy.ts + 41):
                picked = real.pop_min_keys(5, ts)
                for key in picked[:3]:  # evicted again under the new ts
                    real.mark_server_resident(key)
                dummies = dummy.take_min_keys(CONFIG.f_d)
                dummy.record_access_many(dummies, ts)
                dummy.end_round(ts)
                real.check_invariants()
                dummy.check_invariants()
                log.append((picked, dummies))
            return log

        assert drive(*copies) == drive(*originals)

    def test_checkpoint_excludes_server(self):
        # At realistic value sizes the blob (cache + metadata) is far
        # smaller than the outsourced data, because the server is not
        # part of the checkpoint.
        config = WaffleConfig(n=200, b=20, r=8, f_d=4, d=60, c=30,
                              value_size=1024, seed=5)
        datastore = WaffleDatastore(config, make_items(config.n),
                                    keychain=KeyChain.from_seed(6))
        blob = capture_proxy(datastore.proxy)
        server_bytes = sum(len(v) for v in
                           datastore.recorder._inner._data.values())
        assert len(blob) < server_bytes / 2

    def test_a_failed_proxy_is_refused_until_a_restore(self):
        """A round that fails after it began fails the proxy: no checkpoint
        of it, no round and no self-check touches the store again, each
        refusal caused by the failure.  The last checkpoint before it is
        unchanged by it and restores a proxy that serves."""
        datastore = build_datastore()
        proxy, recorder = datastore.proxy, datastore.recorder
        rng = random.Random(3)
        datastore.execute_batch(random_batch(rng))
        blob = capture_proxy(proxy)
        lost = BackendUnavailableError("read lost")

        class ReadFails(PassthroughStore):
            def multi_get(self, keys):
                raise lost

        proxy.store = ReadFails(recorder)
        with pytest.raises(BackendUnavailableError):
            datastore.execute_batch(random_batch(rng))
        assert proxy.failure is lost
        proxy.store = recorder
        records = len(recorder.records)
        for call in (lambda: capture_proxy(proxy),
                     lambda: datastore.execute_batch(random_batch(rng)),
                     proxy.check_invariants):
            with pytest.raises(ProtocolError,
                               match="restore from a checkpoint") as refused:
                call()
            assert refused.value.__cause__ is lost
        assert len(recorder.records) == records
        restored = datastore.proxy = restore_proxy(blob, recorder)
        assert restored.failure is None
        assert capture_proxy(restored) == blob
        datastore.execute_batch(random_batch(rng))
        restored.check_invariants()

    def test_restore_preserves_counters(self):
        datastore = build_datastore()
        proxy = datastore.proxy
        rng = random.Random(9)
        for _ in range(5):
            datastore.execute_batch(random_batch(rng))
        restored = restore_proxy(capture_proxy(proxy), datastore.recorder)
        assert restored.ts == proxy.ts
        assert restored.totals.rounds == proxy.totals.rounds
        assert len(restored.cache) == len(proxy.cache)
        assert list(restored.cache.keys()) == list(proxy.cache.keys())


class TestFailover:
    def test_failover_preserves_linearizability(self):
        ha = ReplicatedProxy(build_datastore())
        reference = dict(make_items(CONFIG.n))
        rng = random.Random(11)

        def run_batches(count):
            for _ in range(count):
                batch, expected = [], []
                for _ in range(CONFIG.r):
                    key = f"user{rng.randrange(CONFIG.n):08d}"
                    if rng.random() < 0.4:
                        value = b"w%08d" % rng.randrange(10**8)
                        batch.append(ClientRequest(op=Operation.WRITE,
                                                   key=key, value=value))
                        reference[key] = value
                        expected.append(value)
                    else:
                        batch.append(ClientRequest(op=Operation.READ,
                                                   key=key))
                        expected.append(reference[key])
                responses = ha.execute_batch(batch)
                assert [r.value for r in responses] == expected

        run_batches(15)
        ha.fail_over()
        run_batches(15)
        ha.fail_over()
        run_batches(15)
        assert ha.failovers == 2

    def test_failover_preserves_storage_invariants_and_bounds(self):
        datastore = build_datastore(log_ids=True)
        ha = ReplicatedProxy(datastore)
        rng = random.Random(13)
        for burst in range(4):
            for _ in range(40):
                ha.execute_batch(random_batch(rng, write_fraction=0.3))
            ha.fail_over()
        assert ha.proxy is datastore.proxy
        report = Adversary(ha.proxy.id_log).feed(datastore.recorder.records)
        report.check_lifecycle()
        assert report.max_alpha <= CONFIG.alpha_bound_effective()
        assert report.min_beta >= CONFIG.beta_bound()


class TestQuorumReplication:
    def build_group(self, standbys=2, quorum=None):
        datastore = build_datastore(log_ids=True)
        return ReplicatedProxy(datastore, standbys=standbys,
                               quorum=quorum), datastore.recorder

    def test_validation(self):
        datastore = build_datastore()
        with pytest.raises(ConfigurationError):
            ReplicatedProxy(datastore, standbys=0)
        with pytest.raises(ConfigurationError):
            ReplicatedProxy(datastore, standbys=2, quorum=5)

    @pytest.mark.parametrize("standby_id", [-1, 2, 5, 9])
    def test_standby_ids_outside_the_group_are_refused(self, standby_id):
        group, _ = self.build_group(standbys=2)
        with pytest.raises(ProtocolError, match="no standby"):
            group.restore_standby(standby_id)
        with pytest.raises(ProtocolError, match="no standby"):
            group.fail_standby(standby_id)
        assert group.alive_standbys == 2
        group.fail_standby(1)
        with pytest.raises(ProtocolError, match="no standby"):
            group.restore_standby(standby_id)
        assert group.alive_standbys == 1

    def test_batches_replicate_to_quorum(self):
        group, _ = self.build_group()
        rng = random.Random(31)
        for _ in range(5):
            group.execute_batch(random_batch(rng))
        assert group.acknowledged_batches == 5
        assert group.alive_standbys == 2

    def test_promotion_after_primary_death(self):
        group, recorder = self.build_group()
        rng = random.Random(37)
        for _ in range(20):
            group.execute_batch(random_batch(rng))
        ts_before = group.proxy.ts
        group.fail_over()
        assert group.proxy.ts == ts_before  # synchronous: nothing lost
        for _ in range(20):
            group.execute_batch(random_batch(rng))
        Adversary().feed(recorder.records).check_lifecycle()

    def test_survives_one_standby_failure(self):
        group, _ = self.build_group(standbys=2)  # group 3, quorum 2
        group.fail_standby(0)
        rng = random.Random(41)
        group.execute_batch(random_batch(rng))  # still 2 of 2 quorum
        assert group.acknowledged_batches == 1

    def test_refuses_batches_below_quorum(self):
        group, _ = self.build_group(standbys=2, quorum=3)
        group.fail_standby(0)
        group.fail_standby(1)
        rng = random.Random(43)
        with pytest.raises(ProtocolError):
            group.execute_batch(random_batch(rng))

    def test_standby_restore_rejoins(self):
        group, _ = self.build_group(standbys=2, quorum=3)
        group.fail_standby(0)
        group.restore_standby(0)
        rng = random.Random(47)
        group.execute_batch(random_batch(rng))
        assert group.acknowledged_batches == 1

    def test_double_failure_of_same_standby_rejected(self):
        group, _ = self.build_group()
        group.fail_standby(0)
        with pytest.raises(ProtocolError):
            group.fail_standby(0)

    def test_no_alive_standby_no_promotion(self):
        group, _ = self.build_group(standbys=1, quorum=1)
        group.fail_standby(0)
        with pytest.raises(ProtocolError):
            group.fail_over()

    def test_invariants_across_promotions_and_failures(self):
        group, recorder = self.build_group(standbys=3, quorum=2)
        rng = random.Random(53)
        for _ in range(15):
            group.execute_batch(random_batch(rng))
        group.fail_standby(1)
        group.fail_over()
        for _ in range(15):
            group.execute_batch(random_batch(rng))
        group.restore_standby(1)
        group.fail_over()
        for _ in range(15):
            group.execute_batch(random_batch(rng))
        report = Adversary(group.proxy.id_log).feed(recorder.records)
        report.check_lifecycle()
        assert report.max_alpha <= CONFIG.alpha_bound_effective()
        assert report.min_beta >= CONFIG.beta_bound()
