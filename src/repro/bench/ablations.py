"""The rows of :data:`repro.bench.experiments.EXPERIMENTS` beyond the
paper's figures: each ``run`` with its ``check`` (and its ``render`` when
the text is more than one table).  Simulated time over seeded runs, like
the figures.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.adversary import Adversary, LeakageSummary
from repro.analysis.timing import timing_attack_benchmark
from repro.baselines.insecure import InsecureStore
from repro.baselines.pancake import PancakeProxy
from repro.bench.harness import run_waffle
from repro.bench.reporting import format_table
from repro.core.config import WaffleConfig
from repro.core.datastore import pad_value
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.ha import capture_proxy
from repro.sim.costmodel import CostModel
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.testing.oracle import check_timing_channel
from repro.workloads import ycsb


def leakage_profile(n: int = 2048, requests: int = 20_000) -> list[dict]:
    """Leakage profile: an auditing adversary's first-pass statistics.

    Complements the α/β analysis with the classic toolkit (per-id
    frequency entropy, KL divergence from uniform, χ² uniformity test,
    per-round load variance), applied to the recorded traces of the
    insecure baseline, Pancake and Waffle under one Zipf-0.99 workload.
    """
    def row(system: str, summary: LeakageSummary) -> dict:
        return {
            "system": system,
            "norm_entropy": summary.normalized_entropy,
            "kl_bits": summary.kl_divergence_bits,
            "chi2_p": summary.chi_square_p,
            "read_cv": summary.read_cv,
        }

    workload = ycsb.workload_c(n, seed=9, value_size=256)
    items = dict(workload.initial_records())
    trace = workload.trace(requests)
    rows = []

    recorder = RecordingStore(RedisSim())
    insecure = InsecureStore(recorder, dict(items))
    for request in trace:
        insecure.execute(request)
    rows.append(row("insecure", Adversary().feed(recorder.records).leakage()))

    recorder = RecordingStore(RedisSim())
    pi = ycsb.workload_c(n, seed=9, value_size=256) \
        ._sampler.probabilities_by_index()
    pancake = PancakeProxy([ycsb.key_name(i) for i in range(n)], dict(items),
                           pi, recorder, batch_size=50, seed=9,
                           keychain=KeyChain.from_seed(9))
    for request in trace:
        pancake.submit(request)
    while pancake.pending():
        pancake.process_batch()
    rows.append(row("pancake", Adversary().feed(recorder.records).leakage()))

    config = WaffleConfig.paper_defaults(n=n, seed=9)
    _, datastore = run_waffle(config, items, trace, CostModel(),
                              record=True)
    waffle = Adversary(from_round=1).feed(datastore.recorder.records)
    rows.append(row("waffle", waffle.leakage()))
    return rows


def check_leakage_profile(rows: list[dict]) -> None:
    by = {row["system"]: row for row in rows}
    # Waffle: perfectly flat on every metric.
    assert by["waffle"]["norm_entropy"] == 1.0
    assert by["waffle"]["kl_bits"] < 1e-9
    assert by["waffle"]["chi2_p"] > 0.99
    # Pancake: smoothed frequencies (uniformity not rejected) but its
    # static ids repeat — entropy high, yet the co-occurrence channel of
    # the `attack` experiment remains.
    assert by["pancake"]["chi2_p"] > 0.01
    assert by["pancake"]["norm_entropy"] > 0.98
    # Insecure: the query skew is fully visible.
    assert by["insecure"]["kl_bits"] > 0.3
    assert by["insecure"]["chi2_p"] < 0.01
    assert by["insecure"]["norm_entropy"] < by["waffle"]["norm_entropy"]


def _snapshot_size(n: int, cache_fraction: float) -> dict:
    config = replace(WaffleConfig.paper_defaults(n=n, seed=3),
                     c=max(1, round(cache_fraction * n)))
    proxy = WaffleProxy(config, store=RedisSim(write_once=True),
                        keychain=KeyChain.from_seed(4))
    workload = ycsb.workload_a(n, seed=5, value_size=1000)
    proxy.initialize({k: pad_value(v, config.value_size)
                      for k, v in workload.initial_records()})
    blob = capture_proxy(proxy)
    cost = CostModel()
    return {
        "cache_pct": round(100 * cache_fraction),
        "snapshot_kib": len(blob) / 1024,
        "ship_time_ms": len(blob) / 1024 * cost.transfer_per_kib_s * 1e3
        + cost.rtt_s * 1e3,
    }


def ha_overhead(n: int = 2**12, rounds: int = 60) -> dict:
    """HA: what the §3.1 availability assumption costs.

    Snapshot size as a function of cache size (the checkpoint carries
    the cache and the timestamp indexes, not the outsourced data), and
    the cost of shipping that snapshot to a standby after every batch,
    charged as wire transfer at the cost model's line rate.
    """
    sizes = [_snapshot_size(n, fraction)
             for fraction in (0.01, 0.02, 0.08, 0.32)]

    config = WaffleConfig.paper_defaults(n=n, seed=3)
    workload = ycsb.workload_a(n, seed=5, value_size=1000)
    items = dict(workload.initial_records())
    cost = CostModel(cores=4)
    measurement, datastore = run_waffle(
        config, items, workload.trace(config.r * rounds), cost)
    # Average round time without replication:
    base_round = measurement.sim_seconds / measurement.rounds
    blob = capture_proxy(datastore.proxy)
    ship = (len(blob) / 1024 * cost.transfer_per_kib_s + cost.rtt_s)
    effective_round = base_round + ship
    replication = {
        "throughput_ops": config.r / effective_round,
        "overhead_pct": 100 * (effective_round / base_round - 1),
    }
    return {"sizes": sizes, "replication": [replication]}


def render_ha_overhead(out: dict, params: dict) -> str:
    return "\n".join([
        format_table(out["sizes"],
                     title=f"HA snapshot size vs cache (N={params['n']})"),
        format_table(out["replication"],
                     title="Replication overhead, snapshot shipped after "
                           "every batch"),
    ])


def check_ha_overhead(out: dict) -> None:
    sizes = [row["snapshot_kib"] for row in out["sizes"]]
    assert sizes == sorted(sizes)  # snapshot grows with the cache
    # Full-snapshot synchronous shipping is visibly expensive at this
    # small round time (at the paper's 90 ms rounds it is ~20%); this row
    # is cost-model arithmetic only.
    assert out["replication"][0]["overhead_pct"] < 150


def workload_d(n: int = 2**12, rounds: int = 150) -> list[dict]:
    """YCSB workload D (read-latest + inserts): the mutation path under load.

    Not a paper figure — the paper only sketches insert/delete support
    (§6.2 end).  D is 95% reads of recent records and 5% inserts through
    the dummy-swap path; the rows carry its throughput against the same
    datastore on read-only workload C, and the dummy budget the inserts
    leave.
    """
    cost = CostModel(cores=4)
    config = WaffleConfig.paper_defaults(n=n, seed=3)

    base = ycsb.workload_c(n, seed=5, value_size=256)
    measurement, _ = run_waffle(config, dict(base.initial_records()),
                                base.trace(config.r * rounds), cost)
    latest = ycsb.workload_d(n, seed=5, value_size=200)
    measurement_d, _ = run_waffle(
        config, dict(latest.initial_records()),
        latest.trace(config.r * rounds), cost)
    return [
        {
            "workload": "C (read only)",
            "throughput_ops": measurement.throughput_ops,
            "inserted": 0,
            "dummies_left": config.d,
        },
        {
            "workload": "D (read latest + 5% inserts)",
            "throughput_ops": measurement_d.throughput_ops,
            "inserted": measurement_d.extra["inserted"],
            "dummies_left": measurement_d.extra["dummies_left"],
        },
    ]


def check_workload_d(rows: list[dict]) -> None:
    by = {row["workload"].split(" ")[0]: row for row in rows}
    assert by["D"]["inserted"] > 0
    # Inserts consume dummies one-for-one (C's row carries the full D).
    assert by["D"]["dummies_left"] == \
        by["C"]["dummies_left"] - by["D"]["inserted"]
    # The mutation path costs something but stays the same order.
    assert by["D"]["throughput_ops"] > 0.4 * by["C"]["throughput_ops"]


def timing_attack(rounds: int = 64, seed: int = 7) -> dict:
    """Timing-leakage observatory: inference attacks on round-release times.

    The adversary model everywhere else looks at *which* storage ids a
    round touches; this one looks at *when* rounds are released.  Under
    on-fill batching the inter-round gaps are ``r / rate`` in
    expectation, so an observer who only sees release instants recovers
    the offered load by inverting gaps and localises a flash-crowd onset
    with a mean-shift scan; a fixed-interval schedule decouples release
    times from arrivals (Cloak's argument, PAPERS.md).  The served
    policies replayed on simulated time
    (:func:`repro.analysis.timing.replay_schedule`); ``--json`` is the
    full report.
    """
    return timing_attack_benchmark(rounds=rounds, seed=seed)


def render_timing_attack(report: dict, params: dict) -> str:
    onset = report["rounds"] // 2
    lines = [
        "Timing-leakage observatory — round-release inference attacks",
        "",
        f"workload: {report['rounds']} rounds, r={report['r']}, "
        f"base rate {report['base_rate']:.0f} req/s with a "
        f"{report['hot_factor']:.0f}x flash crowd at round {onset} "
        f"(seed {report['seed']})",
        "",
        f"{'schedule':>10} {'load corr':>10} {'onset':>8} {'leakage':>9}",
    ]
    for name in ("on_fill", "fixed"):
        side = report[name]
        detected = side["onset_detected"]
        lines.append(
            f"{name:>10} {side['load_attack']['correlation']:>10.3f} "
            f"{str(detected if detected is not None else '-'):>8} "
            f"{side['leakage_score']:>9.3f}")
    lines += [
        "",
        f"leakage drop from shaping: {report['leakage_drop']:.3f}",
        "paper framing: batching hides which ids are hot, but on-fill "
        "release times still encode the offered load; fixed-interval "
        "shaping closes the channel",
    ]
    return "\n".join(lines)


def check_timing_attack(report: dict) -> None:
    violations = check_timing_channel(report)
    assert not violations, "; ".join(v.detail for v in violations)
    assert report["shaped_leaks_less"] is True
    assert report["on_fill"]["leakage_score"] > 0.5, (
        "on-fill schedule should leak visibly: "
        f"{report['on_fill']['leakage_score']:.3f}")
