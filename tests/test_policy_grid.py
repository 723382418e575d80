"""Policy grid: every dummy-policy × fake-policy combination upholds the
storage invariants, and each policy's own α guarantee (or documented
non-guarantee) is exactly what the config reports."""

import random

import pytest

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.workloads.trace import Operation
from tests.conftest import make_items


GRID = [
    ("reshuffle", "least_recent"),
    ("round_robin", "least_recent"),
    ("reshuffle", "uniform"),
    ("round_robin", "uniform"),
]


@pytest.mark.parametrize("dummy_policy,fake_policy", GRID)
class TestPolicyGrid:
    def run(self, dummy_policy, fake_policy, rounds=200, seed=7):
        config = WaffleConfig(n=300, b=24, r=10, f_d=4, d=100, c=40,
                              value_size=64, seed=seed,
                              dummy_policy=dummy_policy,
                              fake_real_policy=fake_policy)
        datastore = WaffleDatastore(config, make_items(300),
                                    keychain=KeyChain.from_seed(seed),
                                    log_ids=True)
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

    def test_storage_invariants(self, dummy_policy, fake_policy):
        _, datastore = self.run(dummy_policy, fake_policy, rounds=120)
        Adversary().feed(datastore.recorder.records).check_lifecycle()

    def test_linearizability(self, dummy_policy, fake_policy):
        config = WaffleConfig(n=120, b=16, r=6, f_d=4, d=40, c=20,
                              value_size=64, seed=3,
                              dummy_policy=dummy_policy,
                              fake_real_policy=fake_policy)
        datastore = WaffleDatastore(config, make_items(120),
                                    keychain=KeyChain.from_seed(3))
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

    def test_alpha_guarantee_matches_policy(self, dummy_policy, fake_policy):
        config, datastore = self.run(dummy_policy, fake_policy)
        report = Adversary(datastore.proxy.id_log) \
            .feed(datastore.recorder.records)
        assert report.min_beta >= config.beta_bound()
        if fake_policy == "least_recent":
            assert report.max_alpha <= config.alpha_bound_effective()
        # uniform fake selection carries no alpha guarantee (the
        # Challenge-2 ablation); nothing to assert beyond invariants.
