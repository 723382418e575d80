"""Policy grid: every dummy-policy × fake-real pick combination upholds
the storage invariants, and each combination's own α guarantee (or
documented non-guarantee) is exactly what the config reports.  The fake-
real pick is the proxy's class: Waffle's least-recent one, or the
Challenge-2 ablation :class:`UniformFakeReals`."""

import random

import pytest

from repro.analysis import Adversary
from repro.bench.ablations import UniformFakeReals
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.workloads.trace import Operation
from tests.conftest import make_items


GRID = [
    pytest.param("reshuffle", WaffleProxy, id="reshuffle-least_recent"),
    pytest.param("round_robin", WaffleProxy, id="round_robin-least_recent"),
    pytest.param("reshuffle", UniformFakeReals, id="reshuffle-uniform"),
    pytest.param("round_robin", UniformFakeReals, id="round_robin-uniform"),
]


@pytest.mark.parametrize("dummy_policy,proxy_class", GRID)
class TestPolicyGrid:
    def run(self, dummy_policy, proxy_class, rounds=200, seed=7):
        config = WaffleConfig(n=300, b=24, r=10, f_d=4, d=100, c=40,
                              value_size=64, seed=seed,
                              dummy_policy=dummy_policy)
        datastore = WaffleDatastore(config, make_items(300),
                                    keychain=KeyChain.from_seed(seed),
                                    log_ids=True)
        datastore.proxy.__class__ = proxy_class
        rng = random.Random(seed)
        for _ in range(rounds):
            batch = []
            for _ in range(config.r):
                key = f"user{rng.randrange(300):08d}"
                if rng.random() < 0.3:
                    batch.append(ClientRequest(
                        op=Operation.WRITE, key=key,
                        value=b"w%d" % rng.randrange(10**6)))
                else:
                    batch.append(ClientRequest(op=Operation.READ, key=key))
            datastore.execute_batch(batch)
            datastore.proxy.check_invariants()
        return config, datastore

    def test_storage_invariants(self, dummy_policy, proxy_class):
        _, datastore = self.run(dummy_policy, proxy_class, rounds=120)
        Adversary().feed(datastore.recorder.records).check_lifecycle()

    def test_linearizability(self, dummy_policy, proxy_class):
        config = WaffleConfig(n=120, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=3,
                              dummy_policy=dummy_policy)
        datastore = WaffleDatastore(config, make_items(120),
                                    keychain=KeyChain.from_seed(3))
        datastore.proxy.__class__ = proxy_class
        reference = dict(make_items(120))
        rng = random.Random(4)
        for _ in range(40):
            batch, expected = [], []
            for _ in range(config.r):
                key = f"user{rng.randrange(120):08d}"
                if rng.random() < 0.5:
                    value = b"w%d" % rng.randrange(10**6)
                    batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                               value=value))
                    reference[key] = value
                    expected.append(value)
                else:
                    batch.append(ClientRequest(op=Operation.READ, key=key))
                    expected.append(reference[key])
            responses = datastore.execute_batch(batch)
            assert [r.value for r in responses] == expected
            datastore.proxy.check_invariants()

    def test_alpha_guarantee_matches_policy(self, dummy_policy, proxy_class):
        config, datastore = self.run(dummy_policy, proxy_class)
        report = Adversary(datastore.proxy.id_log) \
            .feed(datastore.recorder.records)
        assert report.min_beta >= config.beta_bound()
        if proxy_class is WaffleProxy:
            assert report.max_alpha <= config.alpha_bound_effective()
        # uniform fake selection carries no alpha guarantee (the
        # Challenge-2 ablation); nothing to assert beyond invariants.
