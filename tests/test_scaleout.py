"""Tests for the partitioned (scale-out) Waffle composition."""

import hashlib
import random

import pytest

from repro.analysis.uniformity import full_report, verify_storage_invariants
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.errors import ConfigurationError
from repro.scaleout import PartitionedWaffle
from repro.workloads.trace import Operation


PER_PARTITION = 120
PARTITIONS = 3
CONFIG = WaffleConfig(n=PER_PARTITION, b=16, r=6, f_d=4, d=40, c=20,
                      value_size=64, seed=3)


def _planned_items() -> dict[str, bytes]:
    candidates = (f"key{i:08d}" for i in range(100_000))
    keys = PartitionedWaffle.plan_partitions(candidates, PER_PARTITION,
                                             PARTITIONS, master_seed=9)
    return {key: b"val-" + key.encode() for key in keys}


def build(record: bool = False, log_ids: bool = False) -> PartitionedWaffle:
    return PartitionedWaffle(CONFIG, _planned_items(), PARTITIONS,
                             master_seed=9, record=record, log_ids=log_ids)


def build_partitioned():
    """A deployment plus its keys, in planned (partition-major) order."""
    items = _planned_items()
    return PartitionedWaffle(CONFIG, items, PARTITIONS,
                             master_seed=9), list(items)


class TestConstruction:
    def test_plan_balances_partitions(self):
        store = build()
        for datastore in store.stores:
            assert datastore.proxy.real_count == PER_PARTITION
        assert store.total_keys == PER_PARTITION * PARTITIONS

    def test_unbalanced_items_rejected(self):
        items = {f"key{i:08d}": b"v" for i in range(PER_PARTITION * PARTITIONS)}
        with pytest.raises(ConfigurationError):
            PartitionedWaffle(CONFIG, items, PARTITIONS, master_seed=9)

    def test_plan_exhaustion_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionedWaffle.plan_partitions(
                (f"k{i}" for i in range(10)), PER_PARTITION, PARTITIONS)

    def test_at_least_one_partition(self):
        with pytest.raises(ConfigurationError):
            PartitionedWaffle(CONFIG, {}, 0)

    def test_routing_stable_and_spread(self):
        store = build()
        keys = [f"probe{i}" for i in range(300)]
        first = [store.partition_of(key) for key in keys]
        assert first == [store.partition_of(key) for key in keys]
        assert len(set(first)) == PARTITIONS

    def test_routing_unchanged_by_hasher_hoist(self):
        """The precomputed-hasher fast path is the same keyed blake2s
        router: pin a few absolute assignments so a routing change
        (which would shuffle every deployment's layout) cannot slip in
        as a perf tweak."""
        import hashlib

        store = build()
        route_key = hashlib.sha256(b"route:9").digest()[:8]
        for key in ("probe0", "probe1", "waffle", "key00000042"):
            reference = int.from_bytes(
                hashlib.blake2s(key.encode(), key=route_key,
                                digest_size=8).digest(),
                "big") % PARTITIONS
            assert store.partition_of(key) == reference


class TestExecution:
    def test_cross_partition_batch(self):
        store = build()
        sample = []
        for datastore in store.stores:
            sample.extend(list(datastore.proxy.cache.keys())[:2])
        requests = [ClientRequest(op=Operation.READ, key=key)
                    for key in sample]
        responses = store.execute_batch(requests)
        assert [r.key for r in responses] == sample
        assert all(r.value == b"val-" + r.key.encode() for r in responses)

    def test_linearizable_random_history(self):
        store = build()
        all_keys = []
        for datastore in store.stores:
            all_keys.extend(k for k in datastore.proxy._real_index._timestamps)
        reference = {key: b"val-" + key.encode() for key in all_keys}
        rng = random.Random(5)
        for _ in range(40):
            batch, expected = [], []
            for _ in range(10):
                key = rng.choice(all_keys)
                if rng.random() < 0.5:
                    batch.append(ClientRequest(op=Operation.READ, key=key))
                    expected.append(reference[key])
                else:
                    value = b"w%06d" % rng.randrange(10**6)
                    batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                               value=value))
                    reference[key] = value
                    expected.append(value)
            responses = store.execute_batch(batch)
            assert [r.value for r in responses] == expected

    def test_mutations_route_to_owner(self):
        store = build()
        store.insert("fresh-key-001", b"hello")
        owner = store.partition_of("fresh-key-001")
        store.stores[owner].execute_batch([])
        assert store.contains_key("fresh-key-001")
        response = store.execute_batch([
            ClientRequest(op=Operation.READ, key="fresh-key-001")])[0]
        assert response.value == b"hello"
        store.delete("fresh-key-001")
        store.stores[owner].execute_batch([])
        assert not store.contains_key("fresh-key-001")


class TestPartitionedBatchOrdering:
    def test_interleaved_partitions_return_in_request_order(self):
        store, _ = build_partitioned()
        by_partition: dict[int, list[str]] = {}
        for datastore in store.stores:
            for key in datastore.proxy.cache.keys():
                by_partition.setdefault(store.partition_of(key),
                                        []).append(key)
        # Alternate partitions position by position.
        sample = []
        for depth in range(3):
            for index in range(PARTITIONS):
                sample.append(by_partition[index][depth])
        responses = store.execute_batch([
            ClientRequest(op=Operation.READ, key=key) for key in sample])
        assert [r.key for r in responses] == sample
        assert [r.value for r in responses] \
            == [b"val-" + k.encode() for k in sample]

    def test_share_larger_than_r_chunks_into_rounds(self):
        store, keys = build_partitioned()
        target = store.partition_of(keys[0])
        owned = [k for k in keys if store.partition_of(k) == target]
        sample = owned[: CONFIG.r * 2 + 1]  # forces three rounds
        assert len(sample) > CONFIG.r
        before = store.rounds_per_partition()[target]
        responses = store.execute_batch([
            ClientRequest(op=Operation.READ, key=key) for key in sample])
        assert [r.key for r in responses] == sample
        assert store.rounds_per_partition()[target] == before + 3

    def test_mixed_read_write_batch_read_your_writes(self):
        store, keys = build_partitioned()
        sample = [k for k in keys][:6]
        batch, expected = [], []
        for i, key in enumerate(sample):
            value = b"new-%02d" % i
            batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                       value=value))
            expected.append(value)
            batch.append(ClientRequest(op=Operation.READ, key=key))
            expected.append(value)
        responses = store.execute_batch(batch)
        assert [r.value for r in responses] == expected

    def test_routing_matches_fresh_router_instance(self):
        store, keys = build_partitioned()
        rebuilt, _ = build_partitioned()
        assert [store.partition_of(k) for k in keys] \
            == [rebuilt.partition_of(k) for k in keys]
        other = PartitionedWaffle.__new__(PartitionedWaffle)
        other.partitions = PARTITIONS
        other._route_key = store._route_key
        other._hasher_proto = hashlib.blake2s(key=store._route_key,
                                              digest_size=8)
        assert [other.partition_of(k) for k in keys] \
            == [store.partition_of(k) for k in keys]


class TestSecurityComposition:
    def test_each_partition_keeps_its_guarantees(self):
        """Per-partition α/β bounds and id invariants hold when driven
        through the router (partitions are genuinely independent)."""
        store = build(record=True, log_ids=True)
        all_keys = []
        for datastore in store.stores:
            all_keys.extend(k for k in datastore.proxy._real_index._timestamps)
        rng = random.Random(7)
        for _ in range(120):
            batch = [ClientRequest(op=Operation.READ,
                                   key=rng.choice(all_keys))
                     for _ in range(12)]
            store.execute_batch(batch)
        for datastore in store.stores:
            records = datastore.recorder.records
            verify_storage_invariants(records)
            report = full_report(records, datastore.proxy.id_log)
            assert report.max_alpha <= CONFIG.alpha_bound_effective()
            assert report.min_beta >= CONFIG.beta_bound()

    def test_partitions_use_distinct_keychains(self):
        store = build()
        ids = {
            datastore.proxy._encode_ids([("same-key", 0)])[0]
            for datastore in store.stores
        }
        assert len(ids) == PARTITIONS
