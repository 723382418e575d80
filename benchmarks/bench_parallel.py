"""Multi-core round execution: does the worker pool pay for itself?

Runs real rounds through :class:`repro.parallel.WorkerPool` on this
machine's cores and compares steady-state rounds/sec against the same
rounds run serially, at the two crypto-heavy round shapes where a pool
could matter (B=128 and B=250, 4 KiB values — the latter is the
``batch_4k_read`` round shape of ``benchmarks/e2e``).  Each measurement
runs one untimed warm-up batch first, so worker spawn and first-segment
allocation stay out of the figure, then times ``ROUNDS`` rounds; serial
and pooled runs alternate and the reported speedup is the median of the
per-pair ratios.

One assertion, one reading:

* **Byte identity** (asserted, unconditional, any machine): every pooled
  run must reproduce the serial run's adversary trace and response
  digests.  Parallelism must be invisible to the adversary.
* **Pooled / serial ratio** (printed, never asserted): each row carries
  its ratio and a verdict against ROADMAP's 1.0x keep-or-delete line —
  ``BELOW KEEP LINE`` when the pool loses to serial.  The verdict feeds
  the measure-or-delete audit; a slow pool is a finding, not a broken
  build.  The 4-worker point is measured only where >= 4 cores exist,
  and a cell the hardware cannot express is a loud SKIPPED line (and
  ``pytest.skip`` under pytest) — never a silent pass.

Run standalone (``python benchmarks/bench_parallel.py``, prints only) or
through pytest-benchmark like the other benchmarks (which also publishes
``benchmarks/results/parallel.{txt,json}``).
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time

from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.parallel import WorkerPool, attach_pool
from repro.testing.identity import (
    assert_trace_identical,
    build_proxy,
    request_stream,
    trace_digest,
)

N = 1024
SEED = 23
VALUE_SIZE = 4096
BATCH_SIZES = (128, 250)
ROUNDS = 100
PAIRS = 5
KEEP_LINE = 1.0


def round_config(b: int) -> WaffleConfig:
    """A crypto-heavy round shape: PRF+AEAD over 4 KiB values dominate
    the round, which is the work the pool parallelizes."""
    f_d = b // 5
    return WaffleConfig(n=N, b=b, r=(2 * b) // 5, f_d=f_d, d=4 * f_d,
                        c=N // 4, value_size=VALUE_SIZE, seed=SEED)


def timed_run(config: WaffleConfig, workers: int, rates: list[float]):
    """A zero-argument run for :func:`assert_trace_identical` that also
    appends its steady-state rounds/sec to ``rates``.  ``workers=1`` runs
    fully inline (no pool) — the baseline."""
    def run() -> tuple[str, str]:
        proxy = build_proxy(config, KeyChain.from_seed(SEED), record=True)
        warmup, *batches = request_stream(config, 1 + ROUNDS, SEED)
        pool = WorkerPool(workers) if workers > 1 else None
        try:
            if pool is not None:
                attach_pool(proxy, pool)
            responses = hashlib.sha256()
            proxy.handle_batch(warmup)
            start = time.perf_counter()
            for batch in batches:
                for resp in proxy.handle_batch(batch):
                    responses.update(resp.key.encode() + b"\x00" + resp.value)
            rates.append(ROUNDS / (time.perf_counter() - start))
        finally:
            if pool is not None:
                pool.close()
        return trace_digest(proxy.store.records), responses.hexdigest()
    return run


def run() -> dict:
    cores = os.cpu_count() or 1
    worker_counts = (2, 4) if cores >= 4 else (2,)
    shapes = {}
    for b in BATCH_SIZES:
        config = round_config(b)
        rows = {}
        for workers in worker_counts:
            serial: list[float] = []
            pooled: list[float] = []
            for pair in range(PAIRS):
                sides = [timed_run(config, 1, serial),
                         timed_run(config, workers, pooled)]
                # Alternate which side runs first so drift (thermal,
                # page cache) does not favour one of them.
                first, second = sides if pair % 2 == 0 else sides[::-1]
                assert_trace_identical(first, second)
            rows[workers] = {
                "serial_rounds_per_sec": statistics.median(serial),
                "pooled_rounds_per_sec": statistics.median(pooled),
                "speedup": statistics.median(
                    p / s for p, s in zip(pooled, serial)),
                "pairs": PAIRS,
            }
        shapes[b] = {"r": config.r, "workers": rows}
    return {"cpu_count": cores, "n": N, "value_size": VALUE_SIZE,
            "rounds": ROUNDS, "shapes": shapes}


def _render(report: dict) -> str:
    lines = [
        "Multi-core round execution — pooled vs serial, steady state",
        "",
        f"cpu_count: {report['cpu_count']}",
        f"N={report['n']} value={report['value_size']}B, "
        f"{report['rounds']} timed rounds after 1 warm-up, "
        f"median of {PAIRS} alternating pairs",
        "",
        f"{'B':>5} {'workers':>7} {'serial r/s':>11} {'pooled r/s':>11} "
        f"{'ratio':>8}  verdict (keep line {KEEP_LINE:.1f}x)",
    ]
    for b, shape in report["shapes"].items():
        for workers, row in shape["workers"].items():
            # A ratio the hardware could not express is not a number.
            if report["cpu_count"] < workers:
                ratio, verdict = "n/a", "not measurable here"
            else:
                ratio = f"{row['speedup']:.2f}x"
                verdict = ("above keep line" if row["speedup"] >= KEEP_LINE
                           else "BELOW KEEP LINE")
            lines.append(
                f"{b:>5} {workers:>7} {row['serial_rounds_per_sec']:>11.2f} "
                f"{row['pooled_rounds_per_sec']:>11.2f} {ratio:>8}  {verdict}")
    lines += ["", "byte identity (adversary trace + responses), every "
                  "pooled run vs its serial twin: IDENTICAL"]
    return "\n".join(lines)


def _unmeasurable(report: dict) -> list[str]:
    """Cells this machine cannot express (identity was already asserted,
    unconditionally, inside :func:`run`), for the caller to surface
    loudly so an undersized runner never passes for a measurement."""
    cores = report["cpu_count"]
    if cores < 2:
        return [f"the 2-worker ratio needs >= 2 cores, machine has "
                f"{cores}: byte identity verified, ratio not"]
    if cores < 4:
        return [f"4-worker point needs >= 4 cores, machine has {cores}"]
    return []


def test_parallel_rounds(benchmark):
    import pytest
    from conftest import emit_result

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_result("parallel", _render(report), data=report)
    skipped = _unmeasurable(report)
    if skipped:
        pytest.skip("; ".join(skipped))


def main() -> int:
    report = run()
    print(_render(report))
    for reason in _unmeasurable(report):
        print(f"SKIPPED: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
