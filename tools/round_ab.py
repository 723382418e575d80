#!/usr/bin/env python3
"""Same-interpreter A/B of the proxy round: thread CPU per round, two trees.

    python3 tools/round_ab.py PARENT_DIR CHANGE_DIR [--workload W]

Imports ``repro`` from ``PARENT_DIR/src``, builds one in-process
``WaffleDatastore`` (``RedisSim`` behind it, no recorder), purges every
``repro`` module from ``sys.modules``, and does the same from
``CHANGE_DIR/src``: two datastores, each running its own tree's code, in
one interpreter.  It then alternates 40 pairs of blocks of rounds between
them (the side that goes first swaps every block; 20 rounds a block, 200
for the sub-millisecond ``wire_closed_64b`` round) and times each with
``time.thread_time()``, so what another process does to the host touches
both sides alike.  It prints each side's median thread-CPU milliseconds a
round and the change/parent ratio of each pair of blocks: median and
quartiles.  A/A (one tree twice) reads 0.99–1.02, quartiles within
±0.05, on a 2-vCPU host.

An inner-loop instrument, not a gate: it leaves out the wire, the storage
process and the serving frontend, which the wall-clock benchmark
(``BENCHMARK.json``, ``tools/bench_pairs.py``) measures end to end.  The
requests are its own, seeded; it imports nothing from ``benchmarks/e2e``,
whose workloads' deployments ``SHAPES`` repeats (a test holds them equal).
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import sys
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable

#: Pairs of blocks a run alternates, and the seed of its data and requests.
BLOCKS = 40
SEED = 1


#: In-process round shapes of the benchmark's workloads: Waffle's
#: parameters, value size, GET share, key skew (None = uniform), and the
#: rounds a timed block runs.
@dataclass(frozen=True)
class Shape:
    n: int
    b: int
    r: int
    f_d: int
    d: int
    c: int
    value_size: int
    read_frac: float
    zipf: float | None
    rounds: int = 20


SHAPES = {
    "batch_4k_read": Shape(2**13, 250, 100, 50, 4096, 1024, 4096, 0.95, 0.99),
    "batch_64b_mixed": Shape(2**16, 250, 100, 50, 32768, 4096, 64, 0.50,
                             None),
    "serve_open_1k": Shape(2**14, 250, 100, 50, 8192, 1024, 1024, 0.95, 0.99),
    "wire_closed_64b": Shape(2**12, 10, 4, 2, 2048, 64, 64, 0.50, None,
                             rounds=200),
}


class Side:
    """One tree's datastore and the request class its rounds take."""

    def __init__(self, tree: str, shape: Shape, seed: int) -> None:
        src = str(pathlib.Path(tree, "src").resolve())
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        sys.path.insert(0, src)
        try:
            from repro.core.batch import ClientRequest
            from repro.core.config import WaffleConfig
            from repro.core.datastore import WaffleDatastore
            from repro.crypto.keys import KeyChain
            from repro.workloads.trace import Operation
        finally:
            sys.path.remove(src)
        self.tree = tree
        self._request: Callable[..., Any] = ClientRequest
        self._read, self._write = Operation.READ, Operation.WRITE
        body = shape.value_size - 4
        items = {_key(i): i.to_bytes(4, "big") * (body // 4)
                 for i in range(shape.n)}
        config = WaffleConfig(n=shape.n, b=shape.b, r=shape.r, f_d=shape.f_d,
                              d=shape.d, c=shape.c,
                              value_size=shape.value_size, seed=seed)
        self.datastore = WaffleDatastore(config, items, record=False,
                                         keychain=KeyChain.from_seed(seed))

    def batches(self, plan: list[list[tuple[int, bytes | None]]]
                ) -> list[list[Any]]:
        """The planned rounds as this tree's requests."""
        return [[self._request(self._read, _key(i)) if value is None
                 else self._request(self._write, _key(i), value)
                 for i, value in batch] for batch in plan]

    def run(self, batches: list[list[Any]]) -> float:
        """Thread CPU seconds of the rounds ``batches``."""
        execute = self.datastore.execute_batch
        start = time.thread_time()
        for batch in batches:
            execute(batch)
        return time.thread_time() - start


def _key(index: int) -> str:
    return f"key{index:08d}"


class Planner:
    """Seeded rounds of the shape's requests: keys drawn by Zipf rank (or
    uniformly) over a shuffled key order, GET or PUT by the GET share."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.rng = random.Random(seed)
        self.keys = list(range(shape.n))
        self.rng.shuffle(self.keys)
        skew = 0.0 if shape.zipf is None else shape.zipf
        self.cumulative = list(accumulate(
            1.0 / rank ** skew for rank in range(1, shape.n + 1)))

    def rounds(self, count: int) -> list[list[tuple[int, bytes | None]]]:
        """``count`` batches of R ``(key index, PUT value or None)``."""
        shape, rng = self.shape, self.rng
        body = shape.value_size - 4
        return [[(key, None if rng.random() < shape.read_frac
                  else rng.randbytes(body))
                 for key in rng.choices(self.keys, cum_weights=self.cumulative,
                                        k=shape.r)]
                for _ in range(count)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", choices=sorted(SHAPES),
                        default="batch_64b_mixed")
    args = parser.parse_args(argv)
    shape = SHAPES[args.workload]
    sides = {"parent": Side(args.parent_dir, shape, SEED),
             "change": Side(args.change_dir, shape, SEED)}
    planner = Planner(shape, SEED)
    warm = planner.rounds(shape.rounds)
    for side in sides.values():
        side.run(side.batches(warm))
    per_round: dict[str, list[float]] = {name: [] for name in sides}
    for block in range(BLOCKS):
        # Both sides run the same requests, so their states stay in step.
        plan = planner.rounds(shape.rounds)
        for name in sorted(sides, reverse=block % 2 == 0):
            side = sides[name]
            per_round[name].append(side.run(side.batches(plan)) / shape.rounds)
    ratios = [change / parent for parent, change
              in zip(per_round["parent"], per_round["change"])]
    print(f"{args.workload}: {BLOCKS} block pairs of {shape.rounds} "
          "rounds, thread CPU per round")
    for name, side in sides.items():
        low, median, high = quartiles(per_round[name])
        print(f"  {name:6s} {side.tree}: median {1e3 * median:.3f} ms "
              f"(quartiles {1e3 * low:.3f} {1e3 * high:.3f})")
    low, median, high = quartiles(ratios)
    print(f"  change/parent: median {median:.3f} (quartiles {low:.3f} "
          f"{high:.3f}), change faster in "
          f"{sum(ratio < 1 for ratio in ratios)}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
