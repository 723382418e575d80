"""Open-loop serving benchmark: throughput, tail latency, live leakage.

Drives the asyncio serving frontend (:mod:`repro.serve`) with seeded
open-loop arrival streams — requests fire on their own schedule whether
or not the server keeps up — and sweeps offered load across every
release policy × workload cell:

* **policies**: on-fill, max-wait, fixed-interval;
* **workloads**: Poisson (memoryless) and flash-crowd (hot-key burst);
* per cell: completed/shed counts, achieved throughput, and p50/p99
  client latency with bootstrap confidence intervals
  (:func:`repro.analysis.stats.bootstrap_ci`) — a p99 from a few
  hundred samples is itself noisy, so every quantile ships with an
  interval.

A final live-server section replays the PR-7 timing attacks against the
frontend's *committed* release schedule on the real clock and asserts
the serving stack's headline security property: fixed-interval release
scores **exactly 0.0** leakage (its committed schedule is a constant
grid) while on-fill visibly leaks the offered-load curve.

Results go to ``benchmarks/results/serving.{txt,json}`` and, as
machine-readable JSON, ``BENCH_serving.json`` at the repo root.  Run
standalone (``python benchmarks/bench_serving.py [--quick]``) or through
pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.analysis.stats import bootstrap_ci, percentile
from repro.core.datastore import WaffleDatastore
from repro.errors import OverloadedError
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import make_policy
from repro.testing.episodes import chaos_config
from repro.testing.oracle import check_timing_channel
from repro.testing.serving import live_timing_report
from repro.workloads.openloop import FlashCrowdArrivals, PoissonArrivals
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_serving.json"

POLICIES = ("on_fill", "max_wait", "fixed_interval")
WORKLOADS = ("poisson", "flash_crowd")


def _build_arrivals(workload: str, rate: float, duration_s: float,
                    n_keys: int, seed: int):
    if workload == "poisson":
        return PoissonArrivals(rate, n_keys, seed=seed)
    return FlashCrowdArrivals(
        rate, n_keys, spike_factor=4.0, burst_start=duration_s * 0.4,
        burst_duration=duration_s * 0.3, hot_keys=max(1, n_keys // 16),
        seed=seed)


def _run_cell(policy_name: str, workload: str, rate: float, *,
              duration_s: float, seed: int, queue_cap: int = 256) -> dict:
    """One curve point: drive a real datastore at one offered load."""
    cfg = chaos_config(seed)
    items = {key_name(i): f"bench-{i}".encode() for i in range(cfg.n)}
    datastore = WaffleDatastore(cfg, items, record=False)
    stream = _build_arrivals(workload, rate, duration_s, cfg.n, seed)
    arrivals = stream.generate(duration_s)
    latencies: list[float] = []
    shed = 0
    errors = 0

    async def drive() -> float:
        nonlocal shed, errors
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: None)  # warm the pool
        frontend = AsyncFrontend(
            datastore,
            policy=make_policy(policy_name, cfg.r, max_wait_s=0.005,
                               interval_s=0.02),
            queue_cap=queue_cap)
        await frontend.start()
        start = time.perf_counter()
        submitted = 0
        all_submitted = asyncio.Event()

        async def one(arrival):
            nonlocal submitted, shed, errors
            await asyncio.sleep(
                max(0.0, arrival.at - (time.perf_counter() - start)))
            submitted += 1
            if submitted == len(arrivals):
                all_submitted.set()
            issued = time.perf_counter()
            try:
                if arrival.op is Operation.WRITE:
                    await frontend.put(arrival.key, b"bench-write")
                else:
                    await frontend.get(arrival.key)
            except OverloadedError:
                shed += 1
            except Exception:  # noqa: BLE001 - tallied, asserted below
                errors += 1
            else:
                latencies.append(time.perf_counter() - issued)

        tasks = [asyncio.ensure_future(one(arrival))
                 for arrival in arrivals]
        await all_submitted.wait()
        await frontend.close()  # drain the sub-R straggler tail
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - start
        cell_stats.update(frontend.stats())
        return elapsed

    cell_stats: dict = {}
    elapsed = asyncio.run(drive())
    completed = len(latencies)

    def quantile_ci(q: float) -> dict:
        point, lo, hi = bootstrap_ci(
            latencies, lambda s: percentile(s, q), seed=seed)
        return {"value_ms": point * 1e3, "lo_ms": lo * 1e3,
                "hi_ms": hi * 1e3}

    return {
        "policy": policy_name,
        "workload": workload,
        "offered_load": rate,
        "offered_requests": len(arrivals),
        "duration_s": duration_s,
        "elapsed_s": elapsed,
        "completed": completed,
        "shed": shed,
        "errors": errors,
        "throughput": completed / elapsed if elapsed > 0 else 0.0,
        "p50": quantile_ci(50.0),
        "p99": quantile_ci(99.0),
        "rounds": cell_stats.get("rounds", 0),
        "empty_rounds": cell_stats.get("empty_rounds", 0),
        "high_water": cell_stats.get("high_water", 0),
    }


def run(quick: bool = False, seed: int = 7) -> dict:
    loads = (300.0, 900.0) if quick else (200.0, 500.0, 1000.0, 2000.0)
    duration_s = 0.3 if quick else 0.8
    curves = [
        _run_cell(policy, workload, rate, duration_s=duration_s, seed=seed)
        for policy in POLICIES
        for workload in WORKLOADS
        for rate in loads
    ]
    timing = live_timing_report(
        seed=seed,
        rate=400.0 if quick else 600.0,
        duration_s=0.3 if quick else 0.6)
    return {
        "seed": seed,
        "quick": quick,
        "offered_loads": list(loads),
        "curves": curves,
        "timing": timing,
    }


def _render(report: dict) -> str:
    lines = [
        "Open-loop serving: throughput and tail latency vs offered load",
        "",
        f"seed {report['seed']}"
        + (" (quick mode)" if report["quick"] else ""),
        "",
        f"{'policy':>15} {'workload':>12} {'offered':>8} {'done':>6} "
        f"{'shed':>5} {'thru':>7} {'p50 ms (95% CI)':>20} "
        f"{'p99 ms (95% CI)':>20}",
    ]
    for cell in report["curves"]:
        p50, p99 = cell["p50"], cell["p99"]
        lines.append(
            f"{cell['policy']:>15} {cell['workload']:>12} "
            f"{cell['offered_load']:>8.0f} {cell['completed']:>6} "
            f"{cell['shed']:>5} {cell['throughput']:>7.0f} "
            f"{p50['value_ms']:>7.2f} [{p50['lo_ms']:.2f},"
            f"{p50['hi_ms']:.2f}] "
            f"{p99['value_ms']:>7.2f} [{p99['lo_ms']:.2f},"
            f"{p99['hi_ms']:.2f}]")
    timing = report["timing"]
    lines += [
        "",
        "live release-schedule leakage (load-inference attack):",
        f"  on-fill        : {timing['on_fill']['leakage_score']:.3f} "
        f"({timing['on_fill']['rounds']} rounds)",
        f"  fixed-interval : {timing['fixed']['leakage_score']:.3f} "
        f"({timing['fixed']['rounds']} rounds)",
        "",
        "paper framing: batching hides which ids are hot; the serving "
        "layer must also not let release *times* betray the offered "
        "load — fixed-interval shaping closes the channel on the live "
        "server, at the cost of empty (all-fake) rounds under light "
        "load.",
    ]
    return "\n".join(lines)


def _check(report: dict) -> None:
    """Assert every invariant of the report."""
    for cell in report["curves"]:
        where = (f"{cell['policy']}/{cell['workload']}"
                 f"@{cell['offered_load']:.0f}")
        assert cell["errors"] == 0, f"{where}: unexpected client errors"
        assert cell["completed"] > 0, f"{where}: no request completed"
        assert cell["completed"] + cell["shed"] == \
            cell["offered_requests"], f"{where}: requests unaccounted"
        for q in ("p50", "p99"):
            ci = cell[q]
            assert ci["lo_ms"] <= ci["value_ms"] <= ci["hi_ms"], (
                f"{where}: {q} outside its own CI")
    timing = report["timing"]
    violations = check_timing_channel(timing)
    assert not violations, "; ".join(v.detail for v in violations)
    assert timing["fixed"]["leakage_score"] == 0.0, (
        "fixed-interval must score exactly 0.0 on the live server: "
        f"{timing['fixed']['leakage_score']}")


def test_serving(benchmark):
    from conftest import emit_result

    report = benchmark.pedantic(run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    emit_result("serving", _render(report), data=report)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    _check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short CI-budget sweep")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    report = run(quick=args.quick, seed=args.seed)
    print(_render(report))
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nreport -> {JSON_PATH}")
    _check(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
