"""Proxy high availability: checkpointing and replicated failover.

The paper assumes "a stateful entity assumed to be highly available
(which can be ensured with techniques such as a primary-secondary
replication or a quorum replication)" (§3.1) and lists fault tolerance
as future work (§10).  This package supplies that substrate:

* :mod:`repro.ha.checkpoint` — capture/restore the proxy's complete
  trusted state (timestamp indexes, cache, RNG, mutation queue, secrets)
  such that a restored proxy is behaviourally identical;
* :mod:`repro.ha.replicated` — :class:`ReplicatedProxy`, a datastore's
  proxy as primary with ``standbys`` replicas (one standby is
  primary-secondary, more is a quorum group), shipping a state snapshot
  to every live standby at every batch boundary and failing over without
  violating linearizability or any storage-id invariant.

Crash granularity is the batch boundary: a batch is the proxy's atomic
unit of work against the server (Algorithm 1 runs one batch at a time),
so the standby's last snapshot is always mutually consistent with the
server.  Mid-batch atomicity would be the server's transaction
machinery, which is orthogonal here.
"""

from repro.ha.checkpoint import capture_proxy, restore_proxy
from repro.ha.replicated import ReplicatedProxy

__all__ = [
    "ReplicatedProxy",
    "capture_proxy",
    "restore_proxy",
]
