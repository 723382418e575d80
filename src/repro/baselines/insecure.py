"""The insecure baseline: direct, plaintext access to the server (§8.1).

"Clients directly store and query data from Redis.  This baseline performs
no data encryption nor executes any algorithm to ensure obliviousness."
It exists to price obliviousness: the paper reports it outperforming
Waffle by 5.8-6.04x.
"""

from __future__ import annotations

from repro.storage.base import StorageBackend
from repro.workloads.trace import Operation, TraceRequest

__all__ = ["InsecureStore"]


class InsecureStore:
    """Plaintext pass-through client: every request is its own batch of
    one, sent as the client issues it."""

    def __init__(self, store: StorageBackend, items: dict[str, bytes]) -> None:
        self.store = store
        self.operations = 0
        store.multi_put(items.items())  # oblint: disable=OBL101 -- deliberately insecure baseline (§8.1): it exists to price obliviousness

    def get(self, key: str) -> bytes:
        self.operations += 1
        return self.store.multi_get([key])[0]  # oblint: disable=OBL101 -- deliberately insecure baseline (§8.1): it exists to price obliviousness

    def put(self, key: str, value: bytes) -> None:
        self.operations += 1
        self.store.multi_put([(key, value)])  # oblint: disable=OBL101 -- deliberately insecure baseline (§8.1): it exists to price obliviousness

    def delete(self, key: str) -> None:
        self.operations += 1
        self.store.commit_round([key], ())  # oblint: disable=OBL101 -- deliberately insecure baseline (§8.1): it exists to price obliviousness

    def execute(self, request: TraceRequest) -> bytes | None:
        """Run one workload trace request."""
        if request.op is Operation.READ:
            return self.get(request.key)
        self.put(request.key, request.value)
        return None
