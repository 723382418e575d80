"""Turn measured windows and spans into the named metrics.

Every function returns ``{name: (value, samples)}``; ``samples`` is the
number of observations behind a percentile or mean (``None`` for a plain
count).  Names and units are fixed by ``BENCHMARK.json``; ``run.py``
checks that what is computed here matches that list exactly.
"""

from __future__ import annotations

import numpy as np

from drivers import Step, Window
from host_clock import HostClock
from tracing import LAYERS, RoundSpan, Tracer
from workloads import WORKLOADS, Workload

__all__ = ["P99_LIMIT_MS", "SHED_LIMIT", "count_failures", "end_to_end",
           "per_layer", "percentile", "sliced"]

#: A step of the open loop "meets the limit" with p99 at or under this and
#: at most this share of its requests shed or failed.
P99_LIMIT_MS = 300.0
SHED_LIMIT = 0.005

_SLICES = 8


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def count_failures(window: Window) -> tuple[int, int]:
    """(attempted, failed) of a window.

    Failed is what must never happen: an error or a wrong value.  A shed
    request is the program's stated answer to a full queue, not a fault;
    it is counted by ``failed_frac`` and ``serve.shed_frac.*`` and makes
    its step miss the latency limit.
    """
    attempted = sum(step.attempted for step in window.steps)
    return attempted, sum(step.errors + step.wrong for step in window.steps)


def sliced(step: Step, clock: HostClock, ops_per_sample: int) -> dict:
    """Throughput and latency percentiles of a step on the host clock.

    The step is cut into ``_SLICES`` equal stretches; each figure is
    computed per stretch, from the samples that finished in it, and the
    median stretch's is reported.  A hiccup of the host, or a full garbage
    collection, covers one or two stretches; it does not move the median
    stretch.  What finished in the drain after an open-loop step
    belongs to no stretch; it would flatter a saturated step.
    """
    finished = np.asarray(step.finished)
    ends = step.start + finished
    latency_ms = clock.quiet(ends - np.asarray(step.latencies), ends) * 1e3
    edges = np.linspace(0.0, step.seconds, _SLICES + 1)
    stretch = np.searchsorted(edges, finished, side="left") - 1
    rates, p50s, p95s = [], [], []
    for index in range(_SLICES):
        mine = latency_ms[stretch == index]
        rates.append(len(mine) * ops_per_sample / float(clock.quiet(
            step.start + edges[index], step.start + edges[index + 1])))
        if len(mine):
            p50s.append(np.percentile(mine, 50))
            p95s.append(np.percentile(mine, 95))
    if not p50s:
        raise RuntimeError(f"no operation completed in {step.seconds:.1f} s")
    return {"throughput": float(np.median(rates)),
            "p50": float(np.median(p50s)), "p95": float(np.median(p95s))}


def end_to_end(workload: Workload, window: Window, clock: HostClock,
               ciphertext_overhead: int) -> dict:
    """The user-visible metrics of an untraced window; ``run.py`` adds
    ``setup_s`` and ``peak_rss_mb``, which are the process's.

    Latency is the round's on the batch loop and the request's elsewhere,
    on the open loop at its lowest rate.  Throughput and bytes stored
    per operation are, on the open loop, read at its highest rate, where
    the queue is never empty and every round is as full as it gets.
    """
    first, top = window.steps[0], window.steps[-1]
    per_sample = workload.ops_per_sample
    latency = sliced(first, clock, per_sample)
    at_top = latency if top is first else sliced(top, clock, per_sample)
    stored = top.proxy_rounds * 2 * workload.b * (
        workload.value_size + ciphertext_overhead)
    samples = len(first.latencies)
    return {
        "throughput_ops_s": (at_top["throughput"], top.completed),
        "latency_p50_ms": (latency["p50"], samples),
        "latency_p95_ms": (latency["p95"], samples),
        # Every verified reply of the step, the drain's too: the rounds
        # counted carried them all.
        "storage_bytes_per_op":
            (stored / max(len(top.latencies) * per_sample, 1),
             top.proxy_rounds),
    }


def _step_ok(step: Step) -> bool:
    return (percentile(step.latencies, 99) * 1e3 <= P99_LIMIT_MS
            and step.failed <= SHED_LIMIT * step.attempted)


def per_layer(workload: Workload, tracer: Tracer, window: Window,
              reference: Window, clock: HostClock, round_stats: list,
              rtts: list[float]) -> dict:
    """The layer metrics, from a traced window and its spans.

    ``reference`` is the untraced stretch run just before on the same
    deployment (the open loop's at its top rate); ``round_stats`` are the
    proxy's own ``RoundStats`` of the traced rounds; ``rtts`` time
    ``len(RemoteStore)``.  Layer timings are wall-clock, as the spans
    recorded them; ``host.slowdown`` says how slow the host ran meanwhile.
    """
    steps = window.steps
    rounds: list[RoundSpan] = tracer.rounds[steps[0].first_round:
                                            steps[-1].last_round]
    count = max(len(rounds), 1)
    seconds = {layer: sum(r.seconds[layer] for r in rounds)
               for layer in LAYERS}
    items = {layer: sum(r.items[layer] for r in rounds) for layer in LAYERS}
    nbytes = {layer: sum(r.nbytes[layer] for r in rounds) for layer in LAYERS}

    def ms_per_round(total_seconds: float) -> tuple[float, int]:
        return total_seconds / count * 1e3, count

    aead_s = seconds["crypto.aead.encrypt"] + seconds["crypto.aead.decrypt"]
    aead_bytes = nbytes["crypto.aead.encrypt"] + nbytes["crypto.aead.decrypt"]
    wire = tracer.wire_costs()
    rtt = percentile(rtts, 50)
    net_s = (seconds["net.multi_get"] + seconds["net.commit_round"]) / count
    requests = max(sum(s.requests for s in round_stats), 1)
    durations = [r.duration for r in rounds]
    outer = sum(r.outer for r in rounds)
    stray = sum(tracer.stray.seconds.values())
    attempted, failed = count_failures(window)
    failed += steps[0].shed  # later steps overload the queue on purpose
    per_sample = workload.ops_per_sample

    metrics = {
        "crypto.aead.encrypt_ms_per_round":
            ms_per_round(seconds["crypto.aead.encrypt"]),
        "crypto.aead.decrypt_ms_per_round":
            ms_per_round(seconds["crypto.aead.decrypt"]),
        "crypto.aead.mb_per_s": (aead_bytes / max(aead_s, 1e-9) / 1e6, count),
        "crypto.prf.ms_per_round": ms_per_round(seconds["crypto.prf"]),
        "crypto.prf.calls_per_round": (items["crypto.prf"] / count, count),
        "core.round_ms_p50": (percentile(durations, 50) * 1e3, count),
        "core.self_ms_per_round":
            ms_per_round(sum(r.self_seconds for r in rounds)),
        "core.cache_hit_frac":
            (sum(s.cache_hits for s in round_stats) / requests, requests),
        "core.unique_real_per_round":
            (sum(s.unique_real_reads for s in round_stats) / count, count),
        "core.fake_real_per_round":
            (sum(s.fake_real_reads for s in round_stats) / count, count),
        "ds.lru.ms_per_round": ms_per_round(seconds["ds.lru"]),
        "net.multi_get_ms_per_round": ms_per_round(seconds["net.multi_get"]),
        "net.commit_ms_per_round": ms_per_round(seconds["net.commit_round"]),
        "net.encode_ms_per_round": (wire["encode_s"] * 1e3, None),
        "net.decode_ms_per_round": (wire["decode_s"] * 1e3, None),
        "net.rtt_us_p50": (rtt * 1e6, len(rtts)),
        "net.bytes_per_round": (wire["bytes"], None),
        # Two round trips per round: the read and the commit.
        "storage.server_ms_per_round":
            ((net_s - wire["encode_s"] - wire["decode_s"] - 2 * rtt) * 1e3,
             count),
        "storage.reads_per_round": (items["net.multi_get"] / count, count),
        "storage.writes_per_round": (items["net.commit_round"] / count, count),
        "gen.build_ms_per_round": ms_per_round(window.build_s),
        "trace.overhead_frac":
            (1.0 - sliced(steps[-1], clock, per_sample)["throughput"]
             / sliced(reference.steps[-1], clock, per_sample)["throughput"],
             None),
        "trace.budget_gap_frac":
            ((abs(outer - sum(durations)) + stray) / max(outer, 1e-9), count),
        "failed_frac": (failed / max(attempted, 1), attempted),
        "latency_p99_ms":
            (percentile(steps[0].latencies, 99) * 1e3, len(steps[0].latencies)),
        "host.slowdown":
            (clock.slowdown(steps[0].start,
                            steps[-1].start + steps[-1].seconds), None),
    }
    metrics.update(_serve_metrics(workload, tracer, window))
    return metrics


def _serve_metrics(workload: Workload, tracer: Tracer,
                   window: Window) -> dict:
    """``serve.*`` and ``gen.lateness*``: zero where ``repro.serve`` is not
    on the path (the batch loops) or the metric has no meaning (no sockets
    on the open loop, no rate steps on the closed ones)."""
    step_rates = WORKLOADS["serve_open_1k"].rates
    names = ["serve.queue_wait_ms_p50", "serve.queue_wait_ms_p95",
             "serve.round_exec_ms_p50", "serve.deliver_ms_p50",
             "serve.round_fill", "serve.rounds_per_s", "serve.high_water",
             "serve.max_rate_ok_ops_s", "serve.wire.ping_rtt_us_p50",
             "serve.wire.us_per_request", "gen.lateness_ms_p99"]
    for rate in step_rates:
        names += [f"serve.latency_p99_ms.r{rate}",
                  f"serve.goodput_ops_s.r{rate}", f"serve.shed_frac.r{rate}",
                  f"serve.round_fill.r{rate}", f"gen.lateness_ms_p99.r{rate}"]
    metrics: dict = {name: (0.0, None) for name in names}
    if workload.kind == "batch":
        return metrics

    # The serve layer is read where the end-to-end latency is: the first
    # step (the closed loop's only one, the open loop's lowest rate).
    first = window.steps[0]
    rounds = tracer.rounds[first.first_round:first.last_round]
    waits, delivers = tracer.request_spans(rounds)
    carried = sum(len(r.request_ids) for r in rounds)
    metrics.update({
        "serve.queue_wait_ms_p50": (percentile(waits, 50) * 1e3, len(waits)),
        "serve.queue_wait_ms_p95": (percentile(waits, 95) * 1e3, len(waits)),
        "serve.round_exec_ms_p50":
            (percentile([r.duration for r in rounds], 50) * 1e3, len(rounds)),
        "serve.deliver_ms_p50":
            (percentile(delivers, 50) * 1e3, len(delivers)),
        "serve.round_fill":
            (carried / max(len(rounds), 1) / workload.r, len(rounds)),
        "serve.rounds_per_s": (len(rounds) / first.seconds, len(rounds)),
        "serve.high_water": (window.frontend_stats["high_water"], None),
    })
    if workload.kind == "wire_closed":
        in_round = sum(r.duration * len(r.request_ids) for r in rounds)
        per_request = (sum(first.latencies) - sum(waits) - in_round) \
            / max(len(first.latencies), 1)
        metrics["serve.wire.ping_rtt_us_p50"] = (
            percentile(window.ping_rtts, 50) * 1e6, len(window.ping_rtts))
        metrics["serve.wire.us_per_request"] = (
            per_request * 1e6, len(first.latencies))
        return metrics

    lateness = [late for step in window.steps for late in step.lateness]
    metrics["gen.lateness_ms_p99"] = (
        percentile(lateness, 99) * 1e3, len(lateness))
    ok_rates = [step.rate for step in window.steps if _step_ok(step)]
    metrics["serve.max_rate_ok_ops_s"] = (max(ok_rates, default=0), None)
    for step in window.steps:
        spans = tracer.rounds[step.first_round:step.last_round]
        fill = sum(len(r.request_ids) for r in spans) \
            / max(len(spans), 1) / workload.r
        tag = f"r{step.rate}"
        metrics.update({
            f"serve.latency_p99_ms.{tag}":
                (percentile(step.latencies, 99) * 1e3, len(step.latencies)),
            f"serve.goodput_ops_s.{tag}": (step.goodput, step.completed),
            f"serve.shed_frac.{tag}":
                (step.shed / max(step.attempted, 1), step.attempted),
            f"serve.round_fill.{tag}": (fill, len(spans)),
            f"gen.lateness_ms_p99.{tag}":
                (percentile(step.lateness, 99) * 1e3, len(step.lateness)),
        })
    return metrics
