"""YCSB workload generator (Cooper et al., SoCC 2010).

The paper benchmarks with YCSB workloads A (50% reads / 50% writes) and C
(100% reads) over 2^20 keys with 8-byte keys and 1 KiB values at Zipf 0.99
(§8).  This module reproduces the YCSB core-workload request mix; the
factory helpers below are the letters in use: A, C and D (read-latest
with inserts, the ``workload-d`` experiment row).

Keys follow the YCSB convention ``user<number>`` zero-padded to a fixed
width so all keys have equal length (the paper's equal-length assumption,
§3.1).
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.seeding import seeded_rng
from repro.workloads.trace import Operation, TraceRequest
from repro.workloads.zipf import UniformSampler, ZipfSampler

__all__ = [
    "YcsbWorkload",
    "key_name",
    "workload_a",
    "workload_c",
]

#: Zero-pad width; 8-byte keys as in the paper ("user" + 8 digits overall
#: key of fixed length).
_KEY_WIDTH = 8


def key_name(index: int) -> str:
    """Canonical fixed-width key for a key index."""
    return f"user{index:0{_KEY_WIDTH}d}"


class YcsbWorkload:
    """A YCSB-style request stream.

    Parameters
    ----------
    n:
        Number of records.
    read_proportion:
        Fraction of requests that are reads; the rest are writes (updates).
    theta:
        Zipf skew (0.99 in the paper); ``uniform=True`` overrides it.
    uniform:
        Draw keys uniformly instead of Zipf (Table 2's 'Uniform' rows).
    value_size:
        Payload size in bytes (paper: 1 KiB).
    seed:
        Master seed; the key sampler, operation coin and value bytes all
        derive from it, so traces are fully reproducible.
    """

    def __init__(self, n: int, read_proportion: float, theta: float = 0.99,
                 uniform: bool = False, value_size: int = 1024,
                 seed: int | None = None) -> None:
        if not 0.0 <= read_proportion <= 1.0:
            raise ConfigurationError("read_proportion must be in [0, 1]")
        if value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        self.n = n
        self.read_proportion = read_proportion
        self.value_size = value_size
        master = seeded_rng(seed)
        sampler_seed = master.randrange(2**63)
        self._op_rng = random.Random(master.randrange(2**63))
        self._value_rng = random.Random(master.randrange(2**63))
        if uniform:
            self._sampler = UniformSampler(n, seed=sampler_seed)
        else:
            self._sampler = ZipfSampler(n, theta=theta, seed=sampler_seed)

    # ------------------------------------------------------------------
    # dataset
    # ------------------------------------------------------------------
    def initial_records(self) -> Iterator[tuple[str, bytes]]:
        """The load phase: every key with an initial value."""
        for index in range(self.n):
            yield key_name(index), self._make_value(index)

    def _make_value(self, salt: int) -> bytes:
        # Deterministic but distinct payloads; content is irrelevant to the
        # protocols, only its size matters.
        prefix = salt.to_bytes(8, "big", signed=False)
        filler = self._value_rng.randbytes(max(0, self.value_size - 8))
        return (prefix + filler)[: self.value_size]

    # ------------------------------------------------------------------
    # request stream
    # ------------------------------------------------------------------
    def request(self) -> TraceRequest:
        """Draw one request."""
        index = self._sampler.sample()
        key = key_name(index)
        if self._op_rng.random() < self.read_proportion:
            return TraceRequest(Operation.READ, key)
        return TraceRequest(Operation.WRITE, key, self._make_value(index))

    def requests(self, count: int) -> Iterator[TraceRequest]:
        """Yield ``count`` requests."""
        for _ in range(count):
            yield self.request()

    def trace(self, count: int) -> list[TraceRequest]:
        """Materialize ``count`` requests as a list."""
        return list(self.requests(count))


def workload_a(n: int, **kwargs: Any) -> YcsbWorkload:
    """YCSB Workload A: 50% reads, 50% updates (the paper's write-heavy mix)."""
    return YcsbWorkload(n, read_proportion=0.5, **kwargs)


def workload_c(n: int, **kwargs: Any) -> YcsbWorkload:
    """YCSB Workload C: 100% reads (the paper's read-only mix)."""
    return YcsbWorkload(n, read_proportion=1.0, **kwargs)


class LatestWorkload:
    """YCSB Workload D: 95% reads of *recent* records, 5% inserts.

    The read distribution is "latest": the probability of reading a
    record decays (Zipf-shaped) with its age, so freshly inserted keys
    are the hottest.  Inserts create brand-new keys — against Waffle
    they exercise the dummy-swap mutation path (§6.2).

    Parameters
    ----------
    n:
        Initially loaded records (inserted records extend the space).
    read_proportion:
        YCSB D default 0.95.
    """

    def __init__(self, n: int, read_proportion: float = 0.95,
                 theta: float = 0.99, value_size: int = 1024,
                 seed: int | None = None) -> None:
        if not 0.0 <= read_proportion <= 1.0:
            raise ConfigurationError("read_proportion must be in [0, 1]")
        self.n = n
        self.record_count = n
        self.read_proportion = read_proportion
        self.value_size = value_size
        self._theta = theta
        master = seeded_rng(seed)
        self._op_rng = random.Random(master.randrange(2**63))
        self._age_rng = random.Random(master.randrange(2**63))
        self._value_rng = random.Random(master.randrange(2**63))

    def initial_records(self) -> Iterator[tuple[str, bytes]]:
        for index in range(self.n):
            yield key_name(index), self._make_value(index)

    def _make_value(self, salt: int) -> bytes:
        prefix = salt.to_bytes(8, "big", signed=False)
        filler = self._value_rng.randbytes(max(0, self.value_size - 8))
        return (prefix + filler)[: self.value_size]

    def _latest_index(self) -> int:
        # Read-latest: age drawn from a power-shaped law concentrated at
        # zero (u^3 puts ~80% of reads in the newest half and ~46% in the
        # newest tenth), approximating YCSB's SkewedLatestGenerator
        # without rebuilding a Zipf table as the record count grows.
        u = self._age_rng.random()
        age = min(int(self.record_count * u ** 3), self.record_count - 1)
        return self.record_count - 1 - age

    def request(self) -> TraceRequest:
        if self._op_rng.random() < self.read_proportion:
            return TraceRequest(Operation.READ,
                                key_name(self._latest_index()))
        index = self.record_count
        self.record_count += 1
        return TraceRequest(Operation.INSERT, key_name(index),
                            self._make_value(index))

    def requests(self, count: int) -> Iterator[TraceRequest]:
        for _ in range(count):
            yield self.request()

    def trace(self, count: int) -> list[TraceRequest]:
        return list(self.requests(count))


def workload_d(n: int, **kwargs: Any) -> LatestWorkload:
    """YCSB Workload D: read-latest with inserts."""
    return LatestWorkload(n, read_proportion=0.95, **kwargs)
