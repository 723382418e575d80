"""End-to-end integration tests crossing every module boundary."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    SecurityLevel,
    WaffleClient,
    WaffleConfig,
    WaffleDatastore,
)
from repro.analysis import Adversary, histogram_difference
from repro.bench.harness import run_waffle
from repro.core.batch import ClientRequest, request_from_trace
from repro.crypto.keys import KeyChain
from repro.sim.costmodel import CostModel
from repro.workloads.trace import Operation
from repro.workloads.ycsb import workload_a, workload_c
from tests.conftest import make_items


class TestFullStackSoak:
    """A long mixed workload through the public API, with the adversary
    recorder on, checked against every invariant at once."""

    def test_soak_with_all_invariants(self):
        n = 600
        config = WaffleConfig(n=n, b=50, r=20, f_d=10, d=250, c=80,
                              value_size=128, seed=21)
        items = make_items(n)
        datastore = WaffleDatastore(config, items,
                                    keychain=KeyChain.from_seed(22),
                                    log_ids=True)
        client = WaffleClient(datastore)
        reference = dict(items)
        rng = random.Random(23)
        pending = []
        for step in range(4000):
            key = f"user{rng.randrange(n):08d}"
            if rng.random() < 0.5:
                pending.append((client.get(key), reference[key]))
            else:
                value = b"w%06d" % step
                client.put(key, value)
                reference[key] = value
        client.flush()
        for result, expected in pending:
            assert result.value == expected

        records = datastore.recorder.records
        report = Adversary(datastore.proxy.id_log).feed(records)
        report.check_lifecycle()
        assert report.max_alpha <= config.alpha_bound_effective()
        assert report.min_beta >= config.beta_bound()
        assert len(datastore.proxy.cache) == config.c
        assert datastore.server_size == n - config.c + config.d

    def test_soak_with_mutations(self):
        n = 300
        config = WaffleConfig(n=n, b=30, r=12, f_d=6, d=120, c=40,
                              value_size=96, seed=31)
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(32),
                                    log_ids=True)
        client = WaffleClient(datastore)
        rng = random.Random(33)
        live = {f"user{i:08d}" for i in range(n)}
        inserted = 0
        for step in range(150):
            action = rng.random()
            if action < 0.1 and inserted < 40:
                key = f"fresh{inserted:07d}"
                datastore.insert(key, b"born-%d" % step)
                inserted += 1
                # Flush queued gets, then run the round that applies the
                # insert, so the key is live before anyone reads it.
                client.flush()
                datastore.execute_batch([])
                live.add(key)
            elif action < 0.15 and len(live) > n - 30:
                victim = rng.choice(sorted(live - {f"fresh{i:07d}"
                                                   for i in range(40)}))
                datastore.delete(victim)
                live.discard(victim)
            else:
                key = rng.choice(sorted(live))
                client.get(key)
        client.flush()
        for _ in range(5):
            datastore.execute_batch([])  # drain pending mutations
        Adversary().feed(datastore.recorder.records).check_lifecycle()
        assert datastore.proxy.real_count == len(live)


class TestObliviousnessEndToEnd:
    def test_alpha_histograms_indistinguishable_across_inputs(self):
        """Figure 4's claim at reduced scale: skewed and uniform inputs
        produce closely matching adversary-visible α histograms."""
        n = 2048
        cost = CostModel()
        histograms = {}
        for uniform in (False, True):
            config = WaffleConfig.security_preset(SecurityLevel.MEDIUM,
                                                  n=n, seed=61)
            factory = workload_c(n, seed=62, value_size=256,
                                 uniform=uniform)
            items = dict(factory.initial_records())
            trace = factory.trace(config.r * 250)
            _, datastore = run_waffle(config, items, trace, cost,
                                      record=True)
            report = Adversary().feed(datastore.recorder.records)
            histograms[uniform] = report.alpha_histogram
        comparison = histogram_difference(histograms[False],
                                          histograms[True])
        assert comparison.differing_fraction < 0.25

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**31))
    def test_adversarial_sequences_stay_alpha_beta_uniform(self, seed):
        """Theorem 7.3 under adversarially chosen inputs: repeated hot-set
        loops sized just above the cache (the Challenge 4 attack) still
        yield bounded α/β."""
        n = 240
        config = WaffleConfig(n=n, b=24, r=10, f_d=4, d=100, c=16,
                              value_size=64, seed=seed,
                              dummy_policy="round_robin")
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(seed),
                                    log_ids=True)
        hot = [f"user{i:08d}" for i in range(20)]  # just above C=16
        position = 0
        for _ in range(120):
            batch = []
            for _ in range(config.r):
                batch.append(ClientRequest(op=Operation.READ,
                                           key=hot[position % len(hot)]))
                position += 1
            datastore.execute_batch(batch)
        report = Adversary(datastore.proxy.id_log) \
            .feed(datastore.recorder.records)
        report.check_lifecycle()
        assert report.max_alpha <= config.alpha_bound()
        assert report.min_beta >= config.beta_bound()


class TestFailureInjection:
    def test_tampered_server_value_detected(self):
        """An adversary flipping ciphertext bits is caught by the AEAD."""
        from repro.errors import IntegrityError
        n = 120
        config = WaffleConfig(n=n, b=16, r=6, f_d=2, d=40, c=20,
                              value_size=64, seed=71)
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(72))
        # Reach through the recorder to the raw server and corrupt blobs.
        raw = datastore.recorder._inner
        for key in list(raw._data)[:40]:
            raw._data[key] = raw._data[key][:-1] + bytes(
                [raw._data[key][-1] ^ 1])
        with pytest.raises(IntegrityError):
            for i in range(n):
                datastore.execute_batch([
                    ClientRequest(op=Operation.READ, key=f"user{i:08d}"),
                ])

    def test_missing_server_object_detected(self):
        """An adversary deleting ciphertexts is caught as a hard error."""
        from repro.errors import KeyNotFoundError
        n = 120
        config = WaffleConfig(n=n, b=16, r=6, f_d=2, d=40, c=20,
                              value_size=64, seed=81)
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(82))
        raw = datastore.recorder._inner
        for key in list(raw._data)[:60]:
            del raw._data[key]
        with pytest.raises(KeyNotFoundError):
            for i in range(n):
                datastore.execute_batch([
                    ClientRequest(op=Operation.READ, key=f"user{i:08d}"),
                ])
