"""Baseline systems the paper compares against (§8.1).

* :class:`InsecureStore` — clients talk to the key-value server directly,
  no encryption, no obliviousness (the "cost of privacy" yardstick);
* :mod:`repro.baselines.pancake` — Pancake (USENIX Security '20):
  frequency smoothing with replicas + fake queries under a known input
  distribution, static storage ids, updateCache for write propagation;
* :class:`TaoStore` — TaoStore (S&P '16), a concurrent tree-ORAM
  datastore with a sequencer and asynchronous write-back.

All are implemented from scratch against the same
:class:`~repro.storage.base.StorageBackend` interface as Waffle so the
adversary recorder and the cost model apply uniformly.
"""

from repro.baselines.insecure import InsecureStore
from repro.baselines.pancake import PancakeProxy, SmoothedDistribution
from repro.baselines.taostore import TaoStore

__all__ = [
    "InsecureStore",
    "PancakeProxy",
    "SmoothedDistribution",
    "TaoStore",
]
