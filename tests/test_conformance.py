"""Datastore contract conformance: every system, one test suite.

All four systems expose get/put semantics over the same storage
substrate; this suite runs an identical behavioural contract against
each of them (value fidelity, overwrite semantics, interleaved
histories), so a regression in any system's read/write path fails here
with the system's name on it.
"""

import random

import pytest

from repro.baselines.insecure import InsecureStore
from repro.baselines.pancake import PancakeProxy
from repro.baselines.taostore import TaoStore
from repro.core.config import WaffleConfig
from repro.core.client import WaffleClient
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.storage.redis_sim import RedisSim

N = 64
KEYS = [f"user{i:08d}" for i in range(N)]
ITEMS = {key: b"val-%d" % i for i, key in enumerate(KEYS)}


class _Adapter:
    """Uniform get/put facade over each system."""

    def __init__(self, name: str):
        self.name = name
        seed = 5
        if name == "waffle":
            config = WaffleConfig(n=N, b=12, r=5, f_d=2, d=20, c=10,
                                  value_size=48, seed=seed)
            self._client = WaffleClient(
                WaffleDatastore(config, dict(ITEMS),
                                keychain=KeyChain.from_seed(seed)))
            self.get = self._client.get_now
            self.put = self._client.put_now
        elif name == "pancake":
            import numpy as np
            pi = np.full(N, 1.0 / N)
            proxy = PancakeProxy(KEYS, dict(ITEMS), pi, RedisSim(),
                                 batch_size=8, seed=seed,
                                 keychain=KeyChain.from_seed(seed))
            from repro.workloads.trace import Operation, TraceRequest
            self.get = lambda k: proxy.execute(TraceRequest(Operation.READ, k))
            self.put = lambda k, v: proxy.execute(
                TraceRequest(Operation.WRITE, k, v)) and None
        elif name == "taostore":
            tao = TaoStore(dict(ITEMS), RedisSim(), seed=seed,
                           keychain=KeyChain.from_seed(seed))
            self.get, self.put = tao.get, tao.put
        else:
            store = InsecureStore(RedisSim(), dict(ITEMS))
            self.get, self.put = store.get, store.put


SYSTEMS = ["insecure", "waffle", "pancake", "taostore"]


@pytest.fixture(params=SYSTEMS)
def system(request) -> _Adapter:
    return _Adapter(request.param)


class TestContract:
    def test_initial_values_readable(self, system):
        for key in KEYS[::8]:
            assert system.get(key) == ITEMS[key]

    def test_overwrite_visible(self, system):
        system.put(KEYS[3], b"first")
        system.put(KEYS[3], b"second")
        assert system.get(KEYS[3]) == b"second"

    def test_writes_do_not_bleed_across_keys(self, system):
        system.put(KEYS[1], b"only-one")
        assert system.get(KEYS[2]) == ITEMS[KEYS[2]]

    def test_repeated_reads_stable(self, system):
        values = {system.get(KEYS[7]) for _ in range(5)}
        assert values == {ITEMS[KEYS[7]]}

    def test_interleaved_random_history(self, system):
        reference = dict(ITEMS)
        rng = random.Random(13)
        for step in range(60):
            key = KEYS[rng.randrange(N)]
            if rng.random() < 0.5:
                value = b"w%04d" % step
                system.put(key, value)
                reference[key] = value
            else:
                assert system.get(key) == reference[key], \
                    f"{system.name} step {step} key {key}"
