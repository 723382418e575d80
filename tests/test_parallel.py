"""The multi-core round engine (`repro.parallel`).

The contract under test is DESIGN.md §10's determinism guarantee:
parallel execution is a pure wall-clock optimization, byte-invisible on
the adversary channel and in client responses.  Pooled kernels must
produce exactly the inline kernels' output (including the AEAD rng
stream), shard-parallel partitions must match their serial twins, and
checkpoints must reduce pooled wrappers back to plain kernels.

A single two-worker pool (``min_batch=1``, forcing even tiny batches
through the chunked dispatch path) is shared module-wide: forking
workers per test would dominate the suite's runtime, and sharing also
exercises the key-agnostic worker cache across keychains.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import random

import pytest

from repro import obs
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf
from repro.parallel import (
    PooledCipher,
    PooledPrf,
    WorkerPool,
    attach_pool,
    detach_pool,
)
from repro.parallel.worker import pack_frames, unpack_frames
from repro.scaleout.partitioned import PartitionedWaffle
from repro.testing.identity import (
    assert_trace_identical,
    build_proxy,
    seeded_run,
    trace_digest,
)
from repro.workloads.trace import Operation


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2, min_batch=1) as shared:
        yield shared


def _small_config(seed: int = 11) -> WaffleConfig:
    return WaffleConfig(n=96, b=16, r=6, f_d=3, d=12, c=24,
                        value_size=128, seed=seed)


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


class TestFrames:
    def test_pack_unpack_roundtrip(self):
        frames = [b"", b"x", b"hello" * 100, bytes(range(256))]
        assert unpack_frames(pack_frames(frames)) == frames

    def test_empty_payload(self):
        assert unpack_frames(pack_frames([])) == []


class TestPooledKernels:
    def test_pooled_prf_matches_inline(self, pool):
        inline = Prf(b"prf-secret-for-parallel-test")
        pooled = PooledPrf(Prf(b"prf-secret-for-parallel-test"), pool)
        pairs = [(f"user{i:08d}", i * 7 + 3) for i in range(97)]
        assert pooled.derive_many(pairs) == inline.derive_many(pairs)
        # Scalar passthroughs hit the inner kernel directly.
        assert pooled.derive("k", 5) == inline.derive("k", 5)
        assert pooled.derive_bytes(b"sub") == inline.derive_bytes(b"sub")

    def test_pooled_encrypt_is_byte_identical(self, pool):
        # Two ciphers with identically-seeded nonce rngs; the pooled
        # cipher must consume its stream draw-for-draw like inline.
        inline = KeyChain.from_seed(41, rng=random.Random(99)).cipher
        pooled = PooledCipher(
            KeyChain.from_seed(41, rng=random.Random(99)).cipher, pool)
        plaintexts = [b"%04d" % i + b"." * 60 for i in range(80)]
        expected = inline.encrypt_many(plaintexts)
        assert pooled.encrypt_many(plaintexts) == expected
        # And again: the streams must still agree after one batch.
        assert pooled.encrypt_many(plaintexts) == \
            inline.encrypt_many(plaintexts)

    def test_pooled_decrypt_roundtrip(self, pool):
        cipher = KeyChain.from_seed(42).cipher
        pooled = PooledCipher(cipher, pool)
        plaintexts = [b"secret-%05d" % i for i in range(64)]
        blobs = cipher.encrypt_many(plaintexts)
        assert pooled.decrypt_many(blobs) == plaintexts

    def test_worker_exception_propagates(self, pool):
        cipher = KeyChain.from_seed(43).cipher
        pooled = PooledCipher(cipher, pool)
        blobs = cipher.encrypt_many([b"x" * 32 for _ in range(8)])
        tampered = blobs[:3] + [blobs[3][:-1] + bytes([blobs[3][-1] ^ 1])] \
            + blobs[4:]
        with pytest.raises(Exception):
            pooled.decrypt_many(tampered)

    def test_small_batches_stay_inline(self):
        with WorkerPool(2, min_batch=64) as lazy:
            assert not lazy.offloads(10)
            assert lazy.offloads(64)
            inline = KeyChain.from_seed(44, rng=random.Random(7)).cipher
            pooled = PooledCipher(
                KeyChain.from_seed(44, rng=random.Random(7)).cipher, lazy)
            plaintexts = [b"tiny-%d" % i for i in range(3)]
            assert pooled.encrypt_many(plaintexts) == \
                inline.encrypt_many(plaintexts)

    def test_single_worker_pool_is_inline(self):
        single = WorkerPool(1)
        assert not single.offloads(10_000)
        with pytest.raises(RuntimeError):
            single.run("derive", (b"k",), [b"frame"])
        single.close()

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(2, min_batch=0)
        with pytest.raises(ValueError):
            WorkerPool(2, chunk_items=0)


class TestAttachDetach:
    def test_attach_is_idempotent(self, pool):
        proxy = build_proxy(_small_config(), KeyChain.from_seed(11))
        plain_prf = proxy.keychain.prf
        plain_cipher = proxy.keychain.cipher
        attach_pool(proxy, pool)
        attach_pool(proxy, pool)  # re-attach must not nest wrappers
        assert isinstance(proxy.keychain.prf, PooledPrf)
        assert proxy.keychain.prf.inner is plain_prf
        assert isinstance(proxy.keychain.cipher, PooledCipher)
        assert proxy.keychain.cipher.inner is plain_cipher
        detach_pool(proxy)
        assert proxy.keychain.prf is plain_prf
        assert proxy.keychain.cipher is plain_cipher
        detach_pool(proxy)  # no-op on plain kernels

    def test_checkpoint_reduces_to_plain_kernels(self, pool):
        # repro.ha.checkpoint pickles the proxy keychain; pooled wrappers
        # must come back as their (byte-identical) inner kernels, never
        # dragging executor handles into the snapshot.
        chain = KeyChain.from_seed(45)
        chain.prf = PooledPrf(chain.prf, pool)
        chain.cipher = PooledCipher(chain.cipher, pool)
        restored = pickle.loads(pickle.dumps(chain))
        assert isinstance(restored.prf, Prf)
        assert isinstance(restored.cipher, AuthenticatedCipher)
        reference = KeyChain.from_seed(45)
        assert restored.prf.derive("k", 9) == reference.prf.derive("k", 9)
        blob = reference.cipher.encrypt(b"v" * 16)
        assert restored.cipher.decrypt(blob) == b"v" * 16


class TestEndToEndDeterminism:
    def test_proxy_rounds_identical_across_worker_counts(self, pool):
        config = _small_config()
        assert_trace_identical(seeded_run(config, 3),
                               seeded_run(config, 3, pool=pool))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_forced_offload_identical_at_every_worker_count(self, workers):
        # min_batch=1 forces every kernel call through the pool, so even
        # the small plan-phase PRF batches cross the chunked dispatch path.
        config = WaffleConfig(n=256, b=32, r=12, f_d=6, d=24, c=64,
                              value_size=512, seed=31)
        with WorkerPool(workers, min_batch=1) as forced:
            assert_trace_identical(seeded_run(config, 6),
                                   seeded_run(config, 6, pool=forced))

    def test_shard_parallel_matches_serial(self):
        assert_trace_identical(_shard_run(shard_workers=1),
                               _shard_run(shard_workers=2))


class TestObservability:
    def test_worker_labelled_metrics_when_enabled(self, pool):
        prf = PooledPrf(Prf(b"obs-secret"), pool)
        with obs.capture() as handle:
            prf.derive_many([("k%d" % i, i) for i in range(40)])
            names = {(name, dict(labels).get("workers"))
                     for name, labels, _ in handle.registry}
        assert ("parallel.chunks.total", "2") in names
        assert ("parallel.items.total", "2") in names
        assert ("parallel.chunk.wait.seconds", "2") in names
        assert ("parallel.serialized.bytes.total", "2") in names

    def test_zero_metrics_when_disabled(self, pool):
        assert not obs.OBS.enabled
        before = len(list(obs.OBS.registry))
        prf = PooledPrf(Prf(b"obs-secret-2"), pool)
        prf.derive_many([("k%d" % i, i) for i in range(40)])
        assert len(list(obs.OBS.registry)) == before

    def test_dashboard_renders_parallel_section(self, pool):
        from repro.obs.dashboard import render_dashboard

        prf = PooledPrf(Prf(b"obs-secret-3"), pool)
        with obs.capture() as handle:
            prf.derive_many([("k%d" % i, i) for i in range(40)])
            rendered = render_dashboard(handle.registry)
        assert "parallel engine (per pool size)" in rendered
        assert "workers" in rendered
