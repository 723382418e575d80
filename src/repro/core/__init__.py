"""Waffle core: the paper's primary contribution.

Public API
----------
:class:`WaffleDatastore` is the entry point: construct it from a
:class:`WaffleConfig` plus the initial key-value pairs, then issue
``get``/``put``/``delete`` through a :class:`WaffleClient` (or feed request
batches directly to the proxy).  Inserts/deletes swap real and dummy
objects (§6.2).

:class:`ClientRequest` is frozen; :class:`ClientResponse` is not (nor
hashable): a round builds one per request, and :class:`WaffleDatastore`
strips the padding off each one's value in place, so the proxy's own
responses (as :meth:`WaffleProxy.handle_batch` passes them to
``on_answer``) end up unpadded.  Called directly, ``handle_batch`` takes
and returns padded values and refuses a write of any other length.
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
