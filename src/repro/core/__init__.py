"""Waffle core: the paper's primary contribution.

Public API
----------
:class:`WaffleDatastore` is the entry point: construct it from a
:class:`WaffleConfig` plus the initial key-value pairs, then issue
``get``/``put``/``delete`` through a :class:`WaffleClient` (or feed request
batches directly to the proxy).  Inserts/deletes swap real and dummy
objects (§6.2).
"""

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import SecurityLevel, WaffleConfig
from repro.core.client import WaffleClient
from repro.core.datastore import WaffleDatastore
from repro.core.proxy import WaffleProxy

__all__ = [
    "ClientRequest",
    "ClientResponse",
    "SecurityLevel",
    "WaffleClient",
    "WaffleConfig",
    "WaffleDatastore",
    "WaffleProxy",
]
