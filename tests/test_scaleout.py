"""Tests for the partitioned (scale-out) Waffle composition."""

import hashlib
import itertools
import random

import pytest

from repro.analysis.uniformity import full_report, verify_storage_invariants
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.errors import ConfigurationError
from repro.scaleout import PartitionedWaffle
from repro.testing.identity import assert_trace_identical, trace_digest
from repro.workloads.trace import Operation


PER_PARTITION = 120
PARTITIONS = 3
CONFIG = WaffleConfig(n=PER_PARTITION, b=16, r=6, f_d=4, d=40, c=20,
                      value_size=64, seed=3)


def build(record: bool = False, log_ids: bool = False) -> PartitionedWaffle:
    candidates = (f"key{i:08d}" for i in range(100_000))
    keys = PartitionedWaffle.plan_partitions(candidates, PER_PARTITION,
                                             PARTITIONS, master_seed=9)
    items = {key: b"val-" + key.encode() for key in keys}
    return PartitionedWaffle(CONFIG, items, PARTITIONS, master_seed=9,
                             record=record, log_ids=log_ids)


def _shard_run(shard_workers: int, partitions: int = 2,
               n_per_partition: int = 96, rounds: int = 3, seed: int = 13):
    """A zero-argument run for :func:`assert_trace_identical` over a
    ``PartitionedWaffle``: the trace half of the pair is the
    per-partition digests, in partition order."""
    config = WaffleConfig.paper_defaults(n=n_per_partition, seed=seed)
    keys = PartitionedWaffle.plan_partitions(
        (f"user{i:08d}" for i in range(64 * n_per_partition)),
        n_per_partition, partitions, master_seed=seed)
    items = {key: f"value-of-{key}".encode().ljust(64, b".") for key in keys}
    rng = random.Random(seed)
    batches = []
    for _ in range(rounds):
        batch = []
        for _ in range(partitions * config.r):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < 0.3:
                batch.append(ClientRequest(
                    op=Operation.WRITE, key=key,
                    value=b"write-%06d" % rng.randrange(10**6)))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        batches.append(batch)

    def run():
        store = PartitionedWaffle(config, items, partitions,
                                  master_seed=seed, record=True,
                                  shard_workers=shard_workers)
        try:
            responses = hashlib.sha256()
            for resp in itertools.chain.from_iterable(
                    store.execute_batch(batch) for batch in batches):
                responses.update(resp.key.encode() + b"\x00" + resp.value)
            return ([trace_digest(part.recorder.records)
                     for part in store.stores], responses.hexdigest())
        finally:
            store.close()
    return run


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

    def test_bulk_router_matches_scalar_router(self):
        store = build()
        keys = [f"probe{i}" for i in range(500)]
        assert store.partition_of_many(keys) == \
            [store.partition_of(key) for key in keys]
        # Accepts any iterable, not just sequences.
        assert store.partition_of_many(iter(keys[:10])) == \
            [store.partition_of(key) for key in keys[:10]]
        assert store.partition_of_many([]) == []

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

    def test_shard_parallel_matches_serial(self):
        assert_trace_identical(_shard_run(shard_workers=1),
                               _shard_run(shard_workers=2))

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
