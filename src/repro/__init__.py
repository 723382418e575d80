"""Waffle: an online oblivious datastore - full reproduction.

This package reproduces the system and evaluation of *"Waffle: An Online
Oblivious Datastore for Protecting Data Access Patterns"* (SIGMOD 2023/24):
the Waffle proxy (``repro.core``), every substrate its evaluation depends
on (storage, crypto, workloads, baselines, simulated-time cost model), and
the security-analysis toolkit (alpha/beta-uniformity measurement,
alpha-histograms, inference attacks).

Quickstart::

    from repro import WaffleClient, WaffleConfig, WaffleDatastore

    items = {f"user{i:08d}": b"v%d" % i for i in range(1000)}
    config = WaffleConfig.paper_defaults(n=1000, seed=7)
    store = WaffleDatastore(config, items)
    client = WaffleClient(store)
    value = client.get_now("user00000042")   # report via repro.obs.export
"""

from repro.core.client import WaffleClient
from repro.core.config import SecurityLevel, WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import WaffleProxy
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SecurityLevel",
    "WaffleClient",
    "WaffleConfig",
    "WaffleDatastore",
    "WaffleProxy",
    "__version__",
]
