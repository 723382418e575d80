"""Literal known-answer pin for the adversary-visible trace, plus the
kernel-independence check and the identity helper's own failure mode.

Every other identity test compares two live twins (serial vs pooled,
observability off vs on, ...), so a change that moved *both* sides would
pass them all.  This test pins the digests one fixed serial run produces
to literals, which makes "trace bytes did not move" checkable across any
refactor of the proxy, the kernels or the stores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.ds.lru import LruCache
from repro.testing.identity import (
    assert_trace_identical,
    build_proxy,
    request_stream,
    seeded_run,
    trace_digest,
)
from repro.testing.reference import scalar_keychain
from repro.workloads.trace import Operation

# The crypto-heavy multi-core round shape: N=1024, B=128, R=51, 4 KiB.
PINNED_CONFIG = WaffleConfig(n=1024, b=128, r=51, f_d=25, d=100, c=256,
                             value_size=4096, seed=23)
PINNED_ROUNDS = 12
PINNED_TRACE = \
    "ad70b1201a4af6b00d5d0c2bce3bb88ad89449f8b6c0f68d9781c8896353c3f9"
PINNED_RESPONSES = \
    "346b08d4154d879e4fb71709707a904844ba1704d601b86f6341aa639422bd00"


def test_serial_run_reproduces_pinned_digests():
    trace, responses = seeded_run(PINNED_CONFIG, PINNED_ROUNDS)()
    assert trace == PINNED_TRACE
    assert responses == PINNED_RESPONSES


def test_adversary_view_is_kernel_independent():
    """Scalar and batched kernels must be indistinguishable to the
    server: identical access traces and identical client responses on a
    fixed-seed workload."""
    config = WaffleConfig.paper_defaults(n=256, seed=5)
    assert_trace_identical(seeded_run(config, 8, keychain=scalar_keychain),
                           seeded_run(config, 8))


def test_helper_rejects_divergent_runs():
    with pytest.raises(AssertionError, match="diverged"):
        assert_trace_identical(lambda: ("trace-a", "same"),
                               lambda: ("trace-b", "same"))


# ----------------------------------------------------------------------
# Pins for the branches the steady-state run above never takes, and for
# the per-round operation counts.  Each is a fixed-seed run whose digests
# were recorded from the proxy as it stood before Algorithm 1 was split
# into phases; like the literals above they are the gate for any refactor
# of the round and may not be edited.
# ----------------------------------------------------------------------
# Every RoundStats field of every round of the pinned run above: the
# simulated-time figures in repro.bench are computed from these counts.
PINNED_ROUND_STATS = \
    "b479504480513a32c9bc0cb161ba7e0178ed1f37708ff34f60349f978ecf8c4b"

MUTATION_CONFIG = WaffleConfig(n=200, b=24, r=8, f_d=5, d=40, c=30,
                               value_size=64, seed=31)
MUTATION_ROUNDS = 60
MUTATION_PIN = (
    "1ceebd32a25d88635bf26156feaac7cbb19d51b0cfe9bc9740d1b158ebaeeb6c",
    "207314611289e79d754b3b6190612139d305c660f8077d4dd49ae117a6f5a5fd",
    "7fbea55f603c94051b6e647c6af3c51198267ffa82fce0310762bc1fb1c445cb",
)

UNIFORM_CONFIG = WaffleConfig(n=300, b=24, r=10, f_d=4, d=100, c=40,
                              value_size=64, seed=7,
                              fake_real_policy="uniform")
UNIFORM_ROUNDS = 40
UNIFORM_PIN = (
    "91ec4328f0f70015f7420da48d567ad2a1bc12a581501436d7a7515eba302ad2",
    "b409495bcdb03917be6e395109328bf2791c0cd5bd6e6f5c17fb3a37461b5125",
    "ff35bcfdfa4c829f343b5ea4f5a47460ed5b8839c554354cc107c10c0483ae1b",
)

# C = 8 < B - f_D + R = 38: a write-miss key is evicted back to the
# server before its fetched copy is processed, and the stale copy is
# discarded rather than resurrected.
SMALL_CACHE_CONFIG = WaffleConfig(n=256, b=32, r=12, f_d=6, d=24, c=8,
                                  value_size=64, seed=11)
SMALL_CACHE_ROUNDS = 40
SMALL_CACHE_PIN = (
    "8130b0a2ba7791699465a23f9fc44546f77e26c2aeac7779700aa83d7ccea10a",
    "b3378a379c9892dc42f5f3e4ae641347f62c4b3d494a01461dee2ef853dd98cd",
    "1d0f71e74f441b80193bf2162bae54f1d3c54fdff2f54ea2361ee9a72e660381",
)


class _Drive:
    """Feeds batches to a recorded proxy and digests what comes back:
    ``pin()`` is ``(trace, responses, per-round RoundStats)``."""

    def __init__(self, config):
        self.proxy = build_proxy(config, KeyChain.from_seed(config.seed),
                                 record=True)
        self._responses = hashlib.sha256()
        self._stats = hashlib.sha256()

    def batch(self, requests):
        for resp in self.proxy.handle_batch(requests):
            self._responses.update(resp.key.encode() + b"\x00" + resp.value)
        self._stats.update(
            repr(dataclasses.astuple(self.proxy.last_stats)).encode())

    def pin(self):
        return (trace_digest(self.proxy.store.records),
                self._responses.hexdigest(), self._stats.hexdigest())


def _seeded_drive(config, rounds):
    drive = _Drive(config)
    for requests in request_stream(config, rounds, config.seed):
        drive.batch(requests)
    return drive


def test_pinned_run_reproduces_round_stats():
    trace, responses, stats = _seeded_drive(PINNED_CONFIG, PINNED_ROUNDS).pin()
    assert (trace, responses) == (PINNED_TRACE, PINNED_RESPONSES)
    assert stats == PINNED_ROUND_STATS


def test_mutation_run_reproduces_pinned_digests():
    """Interleaved insert/delete through ``MutationQueue``: retired and
    newborn dummies, forced reads of server-resident deletes, cached
    deletes, and deletes deferred because the key is fetched for a client
    in the same round."""
    config = MUTATION_CONFIG
    drive = _Drive(config)
    proxy = drive.proxy
    rng = random.Random(config.seed)
    live = [f"user{i:08d}" for i in range(config.n)]
    inserted = 0
    coverage = {"cached_delete": 0, "forced_read": 0, "deferred": 0}
    for _ in range(MUTATION_ROUNDS):
        doomed = [live.pop(rng.randrange(len(live)))
                  for _ in range(rng.randrange(4))]
        for key in doomed:
            proxy.mutations.enqueue_delete(key)
        newborn = []
        for _ in range(rng.randrange(3)):
            key = f"fresh{inserted:06d}"
            inserted += 1
            proxy.mutations.enqueue_insert(
                key, (b"born-%06d" % inserted).ljust(config.value_size, b"+"))
            newborn.append(key)
        batch = []
        # A delete is drained after the round's requests are looked up,
        # so the doomed key may still be read in this very round.
        if doomed and rng.random() < 0.5:
            batch.append(ClientRequest(op=Operation.READ, key=doomed[0]))
        while len(batch) < config.r:
            key = live[rng.randrange(len(live))]
            if rng.random() < 0.3:
                value = b"write-%08d" % rng.randrange(10**8)
                batch.append(ClientRequest(
                    op=Operation.WRITE, key=key,
                    value=value.ljust(config.value_size, b"_")))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        for key in doomed:
            if key in proxy.cache:
                coverage["cached_delete"] += 1
            else:
                coverage["forced_read"] += 1
        if batch[0].key in doomed and batch[0].key not in proxy.cache:
            coverage["deferred"] += 1
        drive.batch(batch)
        live.extend(newborn)
    # The pin covers these branches only if they were taken.
    assert all(coverage.values()), coverage
    assert inserted > 20 and proxy.dummy_count != config.d
    assert drive.pin() == MUTATION_PIN


def test_uniform_fake_policy_reproduces_pinned_digests():
    assert _seeded_drive(UNIFORM_CONFIG, UNIFORM_ROUNDS).pin() == UNIFORM_PIN


class _CountingCache(LruCache):
    """Counts ``touch_if_present`` probes: the proxy makes one per fetched
    real object it keeps, and none for a stale copy it discards."""

    __slots__ = ("touches",)

    def touch_if_present(self, key):
        self.touches += 1
        return super().touch_if_present(key)


def test_small_cache_regime_reproduces_pinned_digests():
    config = SMALL_CACHE_CONFIG
    assert config.c < config.b - config.f_d + config.r
    drive = _Drive(config)
    counting = _CountingCache(config.c)
    for key, value in drive.proxy.cache.items():
        counting.put(key, value)
    counting.touches = 0
    drive.proxy.cache = counting
    fetched = 0
    for requests in request_stream(config, SMALL_CACHE_ROUNDS, config.seed):
        drive.batch(requests)
        fetched += drive.proxy.last_stats.decryptions
    # The pin covers the discard branch only if it was taken, and the
    # count means something only if the proxy probes: every fetched real
    # object (no deletes here) is either kept, one probe, or discarded.
    discarded = fetched - counting.touches
    assert counting.touches > 0 and discarded > 0, (counting.touches, fetched)
    assert drive.pin() == SMALL_CACHE_PIN
