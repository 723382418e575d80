"""The four named workloads, their seeded request streams, and the reply checker.

Everything a workload feeds the program is made here from ``--seed``:
key choices, GET/PUT mix, values and (for the open loop) arrival times.
Nothing comes from ``repro.workloads`` — the benchmark must not change
when the program's own generators do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "RequestStream", "Verifier", "Workload",
           "key_name", "poisson_arrivals"]


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the deployment it runs against."""

    name: str
    #: ``batch`` (closed loop on ``execute_batch``), ``serve_open`` (open
    #: loop on ``AsyncFrontend``) or ``wire_closed`` (closed loop on sockets).
    kind: str
    n: int
    b: int
    r: int
    f_d: int
    d: int
    c: int
    value_size: int
    read_frac: float
    #: Zipf exponent of the key popularity; ``None`` is uniform.
    zipf: float | None
    max_wait_s: float | None = None
    queue_cap: int | None = None
    #: Offered rates (req/s) of the open loop's ascending steps.
    rates: tuple[int, ...] = ()

    @property
    def ops_per_sample(self) -> int:
        """Client operations behind one latency sample: the batch loop
        times whole rounds of R, the serve loops single requests."""
        return self.r if self.kind == "batch" else 1


#: Why each was chosen is recorded with its name in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="batch_4k_read",
        kind="batch", n=2**13, b=250, r=100, f_d=50, d=4096, c=1024,
        value_size=4096, read_frac=0.95, zipf=0.99),
    Workload(
        name="batch_64b_mixed",
        kind="batch", n=2**16, b=250, r=100, f_d=50, d=32768, c=4096,
        value_size=64, read_frac=0.50, zipf=None),
    Workload(
        name="serve_open_1k",
        kind="serve_open", n=2**14, b=250, r=100, f_d=50, d=8192, c=1024,
        value_size=1024, read_frac=0.95, zipf=0.99,
        max_wait_s=0.020, queue_cap=400, rates=(800, 1600, 3200, 4800)),
    Workload(
        name="wire_closed_64b",
        kind="wire_closed", n=2**12, b=10, r=4, f_d=2, d=2048, c=64,
        value_size=64, read_frac=0.50, zipf=None, max_wait_s=0.001,
        queue_cap=1024),
)}


def key_name(index: int) -> str:
    return f"key{index:08d}"


#: Every value starts with its key index and version, so a reply proves
#: which write it carries; the rest is a seeded filler checked byte for byte.
_TAG = struct.Struct(">II")
_PAD_HEADER = 4  # WaffleDatastore's length prefix inside value_size


class Verifier:
    """Issues self-describing values and checks every reply against them.

    A GET must return its own key's tag with a version no older than the
    last write acknowledged when the GET was issued and no newer than the
    last write issued when it completed.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        body = workload.value_size - _PAD_HEADER - _TAG.size
        self.fill = np.random.default_rng([seed, 0xF111]).bytes(body)
        self.issued = [0] * workload.n
        self.acked = [0] * workload.n
        self.wrong = 0

    def initial_items(self) -> dict[str, bytes]:
        fill = self.fill
        return {key_name(i): _TAG.pack(i, 0) + fill
                for i in range(len(self.issued))}

    def next_put(self, index: int) -> tuple[int, bytes]:
        version = self.issued[index] + 1
        self.issued[index] = version
        return version, _TAG.pack(index, version) + self.fill

    def ack_put(self, index: int, version: int) -> None:
        if version > self.acked[index]:
            self.acked[index] = version

    def check_get(self, index: int, floor: int, value: bytes) -> bool:
        """``floor`` is ``acked[index]`` as read when the GET was issued."""
        ok = False
        if len(value) == _TAG.size + len(self.fill):
            got_index, version = _TAG.unpack_from(value)
            ok = (got_index == index
                  and floor <= version <= self.issued[index]
                  and value[_TAG.size:] == self.fill)
        if not ok:
            self.wrong += 1
        return ok


class RequestStream:
    """A precomputed seeded sequence of (key index, is_put).

    ``lane``/``lanes`` restrict the stream to the keys congruent to
    ``lane`` modulo ``lanes``: concurrent closed-loop clients each own a
    disjoint key set, so every key sees one ordered history.  The stream
    wraps around when a fast run outlasts it.
    """

    def __init__(self, workload: Workload, seed: int, count: int,
                 lane: int = 0, lanes: int = 1) -> None:
        rng = np.random.default_rng([seed, lane, 0x5EED])
        universe = workload.n // lanes
        if workload.zipf is None:
            ranks = rng.integers(0, universe, size=count)
        else:
            weights = 1.0 / np.arange(1, universe + 1) ** workload.zipf
            cdf = np.cumsum(weights)
            ranks = np.searchsorted(cdf, rng.random(count) * cdf[-1])
        # Popularity rank -> key index through a seeded shuffle, so the
        # hot keys are scattered over the key space.
        scatter = rng.permutation(universe)
        # Kept as arrays: a million Python ints would add 40 MB of the
        # benchmark's own to ``peak_rss_mb``.
        self.keys = (scatter[ranks] * lanes + lane).astype(np.int32)
        self.puts = rng.random(count) >= workload.read_frac
        self._next = 0

    def take(self, count: int) -> tuple[list[int], list[bool]]:
        start = self._next
        if start + count > len(self.keys):
            start = 0
        self._next = end = start + count
        return self.keys[start:end].tolist(), self.puts[start:end].tolist()


def poisson_arrivals(seed: int, step: int, rate: float,
                     seconds: float) -> list[float]:
    """Due times (seconds from step start) of a Poisson process."""
    rng = np.random.default_rng([seed, step, 0xA771])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.2) + 64)
    due = np.cumsum(gaps)
    return due[due < seconds].tolist()
