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

The sharding section reports the sharded multi-proxy frontend
(:mod:`repro.serve.sharded`): served throughput and p50/p99 vs
partition count under a saturating open-loop stream — a report, not a
gate: every partition's rounds run on one thread, so partitions are
routing and isolation, not throughput (DESIGN.md §14) — and asserts the
two security invariants partitioning must keep: per-partition adversary
traces byte-identical to a serial replay on an identically-seeded twin,
and the *merged* epoch-aligned fixed-interval schedule scoring exactly
0.0 on the load-inference attack.

Results go to ``benchmarks/results/serving.{txt,json}`` and, as
machine-readable JSON, ``BENCH_serving.json`` at the repo root.  Run
standalone (``python benchmarks/bench_serving.py [--quick]``) or through
pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import sys
import time

from repro.analysis.stats import bootstrap_ci, percentile
from repro.analysis.timing import load_inference_attack
from repro.core.batch import ClientResponse
from repro.core.datastore import WaffleDatastore
from repro.errors import OverloadedError
from repro.scaleout.partitioned import PartitionedWaffle
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import make_policy
from repro.serve.sharded import ShardedFrontend
from repro.testing.identity import trace_digest
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


def _plan_sharded(cfg, partitions: int, seed: int):
    """A partition-balanced dataset: keys plus their values."""
    candidates = (key_name(i)
                  for i in range(64 * cfg.n * partitions + 4096))
    keys = PartitionedWaffle.plan_partitions(candidates, cfg.n, partitions,
                                             master_seed=seed)
    return keys, {key: b"bench-" + key.encode() for key in keys}


def _run_shard_cell(partitions: int, rate: float, *, duration_s: float,
                    seed: int, queue_cap: int = 1024) -> dict:
    """One shard-scaling point: saturating open-loop load over P shards."""
    cfg = chaos_config(seed)
    keys, items = _plan_sharded(cfg, partitions, seed)
    store = PartitionedWaffle(cfg, items, partitions, master_seed=seed)
    arrivals = PoissonArrivals(rate, len(keys), seed=seed).generate(
        duration_s)
    key_map = {key_name(i): key for i, key in enumerate(keys)}
    latencies: list[float] = []
    shed = 0
    errors = 0
    cell_stats: dict = {}
    per_rows: list[dict] = []

    async def drive() -> float:
        nonlocal shed, errors
        frontend = ShardedFrontend(store, queue_cap=queue_cap)
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
            key = key_map[arrival.key]
            try:
                if arrival.op is Operation.WRITE:
                    await frontend.put(key, b"bench-write")
                else:
                    await frontend.get(key)
            except OverloadedError:
                shed += 1
            except Exception:  # noqa: BLE001 - tallied, asserted below
                errors += 1
            else:
                latencies.append(time.perf_counter() - issued)

        tasks = [asyncio.ensure_future(one(arrival))
                 for arrival in arrivals]
        await all_submitted.wait()
        await frontend.close()  # drain per-partition straggler tails
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - start
        cell_stats.update(frontend.stats())
        per_rows.extend(frontend.per_partition_stats())
        return elapsed

    elapsed = asyncio.run(drive())
    completed = len(latencies)

    def quantile_ci(q: float) -> dict:
        point, lo, hi = bootstrap_ci(
            latencies, lambda s: percentile(s, q), seed=seed)
        return {"value_ms": point * 1e3, "lo_ms": lo * 1e3,
                "hi_ms": hi * 1e3}

    return {
        "partitions": partitions,
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
        "per_partition": [
            {"admitted": row["admitted"], "shed": row["shed"],
             "rounds": row["rounds"], "high_water": row["high_water"]}
            for row in per_rows
        ],
    }


def _shard_identity(seed: int, partitions: int = 2) -> dict:
    """Concurrent sharded fan-in vs serial twin replay, per partition.

    Every key is fetched concurrently through a :class:`ShardedFrontend`
    over a recording :class:`PartitionedWaffle`; the captured round
    partitions replay serially on an identically-seeded twin.  The
    per-partition adversary tapes (storage access records, compared by
    digest) must match byte-for-byte — interleaving partitions may
    reorder events only *between* tapes.
    """
    cfg = chaos_config(seed)
    keys, items = _plan_sharded(cfg, partitions, seed)
    live = PartitionedWaffle(cfg, items, partitions, master_seed=seed,
                             record=True, log_ids=True)
    twin = PartitionedWaffle(cfg, items, partitions, master_seed=seed,
                             record=True, log_ids=True)
    captured: list[list[list]] = [[] for _ in range(partitions)]

    def wrap(index, execute):
        def spy(requests):
            captured[index].append(list(requests))
            return execute(requests)
        return spy

    async def drive() -> list[bytes]:
        async with ShardedFrontend(live, wrap_execute=wrap) as frontend:
            return await asyncio.gather(
                *(frontend.get(key) for key in keys))

    values = asyncio.run(drive())
    assert values == [items[key] for key in keys], \
        "sharded fan-in returned wrong bytes"
    for index, rounds in enumerate(captured):
        for batch in rounds:
            twin.stores[index].execute_batch(batch)
    return {
        "partitions": partitions,
        "requests": len(keys),
        "rounds_per_partition": [len(rounds) for rounds in captured],
        "trace_identical": [
            trace_digest(live.stores[i].recorder.records)
            == trace_digest(twin.stores[i].recorder.records)
            for i in range(partitions)
        ],
    }


def _shard_grid_schedule(partitions: int, *, seed: int, rate: float,
                         duration_s: float,
                         interval_s: float = 0.025) -> dict:
    """Merged epoch-aligned fixed grids, scored by the timing adversary.

    Every partition's fixed-interval policy is aligned to one shared
    epoch at start, so P grids commit float-identical ticks; the merged
    (deduplicated) schedule is the single-proxy grid and must score
    exactly 0.0 against the load-inference attack even under a flash
    crowd.  Rounds execute against a stand-in (the adversary scores
    *when* rounds fire, not what they carry).
    """
    cfg = chaos_config(seed)
    keys, items = _plan_sharded(cfg, partitions, seed)
    store = PartitionedWaffle(cfg, items, partitions, master_seed=seed)
    workload = FlashCrowdArrivals(
        rate, 64, spike_factor=5.0, burst_start=duration_s * 0.4,
        burst_duration=duration_s * 0.3, hot_keys=4, seed=seed,
        read_fraction=1.0)
    arrivals = workload.generate(duration_s)
    key_map = {key_name(i): keys[i] for i in range(64)}

    def standin(index, execute):
        def run_round(requests):
            return [ClientResponse(request_id=req.request_id, key=req.key,
                                   value=b"") for req in requests]
        return run_round

    merged: list[float] = []
    per_rounds: list[int] = []
    anchor = 0.0

    async def drive() -> None:
        nonlocal anchor
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: None)  # warm the pool
        frontend = ShardedFrontend(
            store,
            policy_factory=lambda index: make_policy(
                "fixed_interval", cfg.r, interval_s=interval_s),
            wrap_execute=standin)
        anchor = time.perf_counter()
        await frontend.start()
        submitted = 0
        all_submitted = asyncio.Event()

        async def one(arrival):
            nonlocal submitted
            await asyncio.sleep(
                max(0.0, arrival.at - (time.perf_counter() - anchor)))
            submitted += 1
            if submitted == len(arrivals):
                all_submitted.set()
            return await frontend.get(key_map[arrival.key])

        tasks = [asyncio.ensure_future(one(arrival))
                 for arrival in arrivals]
        await all_submitted.wait()
        await asyncio.sleep(duration_s * 0.2)  # the quiet regime too
        await frontend.close()
        await asyncio.gather(*tasks)
        merged.extend(frontend.merged_release_times())
        per_rounds.extend(len(f.release_times)
                          for f in frontend.frontends)

    asyncio.run(drive())
    gaps = list(zip(merged, merged[1:]))
    true_rates = [workload.rate_at((a + b) / 2.0 - anchor)
                  for a, b in gaps]
    attack = load_inference_attack(merged, true_rates, cfg.r)
    return {
        "partitions": partitions,
        "interval_s": interval_s,
        "merged_rounds": len(merged),
        "per_partition_rounds": per_rounds,
        "leakage_score": attack["leakage_score"],
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
    shard_counts = (1, 2) if quick else (1, 2, 4)
    shard_rate = 1500.0 if quick else 2500.0
    sharding = {
        "cpu_count": os.cpu_count() or 1,
        "counts": list(shard_counts),
        "cells": [
            _run_shard_cell(partitions, shard_rate,
                            duration_s=duration_s, seed=seed)
            for partitions in shard_counts
        ],
        "identity": _shard_identity(seed),
        "grid": _shard_grid_schedule(
            2, seed=seed, rate=400.0 if quick else 600.0,
            duration_s=0.3 if quick else 0.6),
    }
    return {
        "seed": seed,
        "quick": quick,
        "offered_loads": list(loads),
        "curves": curves,
        "timing": timing,
        "sharding": sharding,
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
    ]
    sharding = report["sharding"]
    base = sharding["cells"][0]["throughput"]
    lines += [
        "",
        f"partition count, one round thread ({sharding['cpu_count']} "
        f"cores, offered {sharding['cells'][0]['offered_load']:.0f}/s):",
        f"{'parts':>7} {'done':>6} {'shed':>5} {'thru':>7} "
        f"{'vs P=1':>8} {'p50 ms':>8} {'p99 ms':>8}",
    ]
    for cell in sharding["cells"]:
        ratio = cell["throughput"] / base if base > 0 else 0.0
        lines.append(
            f"{cell['partitions']:>7} {cell['completed']:>6} "
            f"{cell['shed']:>5} {cell['throughput']:>7.0f} "
            f"{ratio:>7.2f}x {cell['p50']['value_ms']:>8.2f} "
            f"{cell['p99']['value_ms']:>8.2f}")
    identity = sharding["identity"]
    grid = sharding["grid"]
    lines += [
        f"  per-partition trace identity : "
        f"{identity['trace_identical']} "
        f"({identity['requests']} concurrent requests, "
        f"{identity['rounds_per_partition']} rounds)",
        f"  merged aligned-grid schedule : "
        f"{grid['leakage_score']:.3f} leakage "
        f"({grid['merged_rounds']} merged rounds from "
        f"{grid['per_partition_rounds']})",
        "",
        "paper framing: batching hides which ids are hot; the serving "
        "layer must also not let release *times* betray the offered "
        "load — fixed-interval shaping closes the channel on the live "
        "server (even merged across epoch-aligned shards), at the cost "
        "of empty (all-fake) rounds under light load.",
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

    sharding = report["sharding"]
    for cell in sharding["cells"]:
        where = f"shards={cell['partitions']}"
        assert cell["errors"] == 0, f"{where}: unexpected client errors"
        assert cell["completed"] > 0, f"{where}: no request completed"
        assert cell["completed"] + cell["shed"] == \
            cell["offered_requests"], f"{where}: requests unaccounted"
    identity = sharding["identity"]
    assert all(identity["trace_identical"]), (
        "per-partition adversary traces diverged from serial replay: "
        f"{identity['trace_identical']}")
    grid = sharding["grid"]
    assert grid["leakage_score"] == 0.0, (
        "merged epoch-aligned grid must score exactly 0.0: "
        f"{grid['leakage_score']}")
    assert grid["merged_rounds"] < sum(grid["per_partition_rounds"]), (
        "aligned grids should deduplicate in the merged schedule: "
        f"{grid['merged_rounds']} merged from "
        f"{grid['per_partition_rounds']}")


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
