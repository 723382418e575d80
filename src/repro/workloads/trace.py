"""Request trace types shared by all workload generators.

A trace is a list of :class:`TraceRequest` objects — the ``S_Proxy``
sequence of the security definition (§5.1).  Every generator in this
package produces traces; every system driver consumes them, so systems are
always compared on byte-identical input sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Operation", "TraceRequest"]


class Operation(enum.Enum):
    """Client-visible operation kinds.

    ``INSERT`` creates a brand-new key (YCSB workload D's insert mix);
    in Waffle it routes through the dummy-swap mutation path (§6.2)
    rather than the batch, so drivers handle it separately.
    """

    READ = "read"
    WRITE = "write"
    INSERT = "insert"


@dataclass(frozen=True, slots=True)
class TraceRequest:
    """One client request: operation, plaintext key, optional write value."""

    op: Operation
    key: str
    value: bytes | None = None

    def __post_init__(self) -> None:
        if self.op in (Operation.WRITE, Operation.INSERT) \
                and self.value is None:
            raise ValueError(f"{self.op.value} requests require a value")
        if self.op is Operation.READ and self.value is not None:
            raise ValueError("read requests must not carry a value")
