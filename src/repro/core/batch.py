"""Request/response types flowing between clients and the Waffle proxy.

Algorithm 1 consumes batches of ``R`` client requests, each carrying a
unique request id (the key of the ``cliResp`` map), and produces one
response per request.  These are the trusted-domain types; nothing here is
visible to the server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.workloads.trace import Operation, TraceRequest

__all__ = ["ClientRequest", "ClientResponse", "request_from_trace"]

_request_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ClientRequest:
    """One client request as seen by the proxy (rId, op, k, val)."""

    op: Operation
    key: str
    value: bytes | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.op is Operation.WRITE and self.value is None:
            raise ValueError("write requests require a value")


@dataclass(slots=True)
class ClientResponse:
    """The proxy's answer to one client request.

    Not frozen: a round builds one per request, and the datastore strips
    the padding off each value in place instead of building it again.
    """

    request_id: int
    key: str
    value: bytes


def request_from_trace(request: TraceRequest) -> ClientRequest:
    """Wrap a workload trace record as a proxy request."""
    return ClientRequest(op=request.op, key=request.key, value=request.value)
