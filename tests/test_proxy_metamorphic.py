"""Metamorphic and adversarial property tests for the Waffle proxy.

These complement the example-based proxy tests with relations that must
hold across *transformed* inputs: determinism under equal seeds,
insensitivity of final visible state to request interleaving across
batches, and robustness to adversarially shaped request sequences.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.workloads.trace import Operation
from tests.conftest import make_items


def build(seed=1, **overrides):
    params = dict(n=120, b=16, r=6, f_d=4, d=40, c=20, value_size=64,
                  seed=seed)
    params.update(overrides)
    config = WaffleConfig(**params)
    datastore = WaffleDatastore(config, make_items(config.n),
                                keychain=KeyChain.from_seed(seed),
                                log_ids=True)
    return config, datastore


def run_trace(datastore, config, ops):
    """ops: list of ('r'|'w', index, value)."""
    batch = []
    for kind, index, value in ops:
        key = f"user{index:08d}"
        if kind == "r":
            batch.append(ClientRequest(op=Operation.READ, key=key))
        else:
            batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                       value=value))
        if len(batch) == config.r:
            datastore.execute_batch(batch)
            batch = []
    if batch:
        datastore.execute_batch(batch)


class TestDeterminism:
    def test_identical_seeds_identical_adversary_views(self):
        """Two deployments with equal seeds and equal inputs emit
        byte-identical server traces — the property checkpoint/failover
        and trace archiving both depend on."""
        ops = [("r", i % 120, None) if i % 3 else ("w", i % 120, b"w%d" % i)
               for i in range(300)]
        views = []
        for _ in range(2):
            config, datastore = build(seed=9)
            run_trace(datastore, config, ops)
            views.append([(r.op, r.storage_id)
                          for r in datastore.recorder.records])
        assert views[0] == views[1]

    def test_different_seeds_different_views(self):
        ops = [("r", i % 120, None) for i in range(120)]
        views = []
        for seed in (9, 10):
            config, datastore = build(seed=seed)
            run_trace(datastore, config, ops)
            views.append({r.storage_id for r in datastore.recorder.records})
        assert views[0] != views[1]


class TestInterleavingInsensitivity:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31))
    def test_final_values_independent_of_batch_boundaries(self, seed):
        """Splitting the same request sequence into different batch
        shapes leaves the client-visible final state identical."""
        rng = random.Random(seed)
        ops = []
        for step in range(90):
            index = rng.randrange(120)
            if rng.random() < 0.5:
                ops.append(("w", index, b"v%d" % step))
            else:
                ops.append(("r", index, None))

        finals = []
        for chunk in (1, 3, 6):
            config, datastore = build(seed=7)
            batch = []
            for kind, index, value in ops:
                key = f"user{index:08d}"
                request = (ClientRequest(op=Operation.READ, key=key)
                           if kind == "r" else
                           ClientRequest(op=Operation.WRITE, key=key,
                                         value=value))
                batch.append(request)
                if len(batch) == chunk:
                    datastore.execute_batch(batch)
                    batch = []
            if batch:
                datastore.execute_batch(batch)
            snapshot = {}
            for index in range(120):
                key = f"user{index:08d}"
                response = datastore.execute_batch([
                    ClientRequest(op=Operation.READ, key=key)])[0]
                snapshot[key] = response.value
            finals.append(snapshot)
        assert finals[0] == finals[1] == finals[2]


class TestAdversarialSequences:
    @pytest.mark.parametrize("pattern", [
        "single_key_hammer",
        "cache_thrash_cycle",
        "alternating_pair",
        "sequential_scan",
    ])
    def test_bounds_hold_for_adversarial_patterns(self, pattern):
        """The Challenge-4 attack family: sequences chosen to stress the
        cache and the fake-query queue still satisfy the bounds."""
        config, datastore = build(seed=13, dummy_policy="round_robin")
        n = config.n

        def key_at(step: int) -> int:
            if pattern == "single_key_hammer":
                return 0
            if pattern == "cache_thrash_cycle":
                return step % (config.c + 2)  # just above the cache
            if pattern == "alternating_pair":
                return step % 2
            return step % n  # sequential scan

        for step in range(150):
            datastore.execute_batch([
                ClientRequest(op=Operation.READ,
                              key=f"user{key_at(step * config.r + j):08d}")
                for j in range(config.r)
            ])
        records = datastore.recorder.records
        report = Adversary(datastore.proxy.id_log).feed(records)
        report.check_lifecycle()
        assert report.max_alpha <= config.alpha_bound()
        assert report.min_beta >= config.beta_bound()

    def test_alpha_histogram_reflects_hit_rate_but_stays_bounded(self):
        """A documented residual leakage channel, pinned as a regression:
        the α *distribution* depends on the cache-hit rate (hits shrink
        r, growing f_R, so fake-query recycling speeds up).  An adversary
        comparing extreme patterns (hammering one cached key vs scanning
        everything) can therefore distinguish their aggregate hit rates —
        the same effect behind the paper's small histogram deltas for
        correlated queries (§8.3.2, Figure 5).  What never leaks is
        *which* keys are involved, and both patterns stay α,β-uniform."""
        reports = []
        for pattern in ("hammer", "scan"):
            config, datastore = build(seed=17, dummy_policy="round_robin")
            for step in range(200):
                if pattern == "hammer":
                    keys = ["user00000000"] * config.r
                else:
                    base = step * config.r
                    keys = [f"user{(base + j) % config.n:08d}"
                            for j in range(config.r)]
                datastore.execute_batch([
                    ClientRequest(op=Operation.READ, key=key)
                    for key in keys
                ])
            report = Adversary(datastore.proxy.id_log) \
                .feed(datastore.recorder.records)
            assert report.max_alpha <= config.alpha_bound()
            assert report.min_beta >= config.beta_bound()
            reports.append(report)
        # The hammer pattern's all-hit batches recycle the server faster:
        # its observed max α is at most the scan pattern's.
        hammer, scan = reports
        assert hammer.max_alpha <= scan.max_alpha
