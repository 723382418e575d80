"""One wall-clock benchmark for the whole path.

    python3 benchmarks/e2e/run.py [--seed S] [--trace] [--quick] [--history]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Without ``--workload`` every workload runs, each in a fresh child
interpreter: the untraced pass (end-to-end metrics), then with
``--trace`` the traced pass (per-layer metrics).  With ``--workload``
this process runs that one pass and prints, as its last line, the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.

What is measured is the repository's default: ``pure`` crypto backend,
no worker pool, one proxy, observability off.  The run refuses to start
otherwise.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

_HERE = pathlib.Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program is missing: no {_ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(_ROOT / "src"))

from repro.crypto.backend import DEFAULT_BACKEND  # noqa: E402
from repro.crypto.keys import KeyChain  # noqa: E402
from repro.obs import OBS  # noqa: E402

import metrics as metric_fns  # noqa: E402
from drivers import Window, make_driver  # noqa: E402
from host_clock import HostProbe, WallClock  # noqa: E402
from topology import Deployment, child_env  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Verifier, Workload  # noqa: E402

SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())
HISTORY = _HERE / "history.jsonl"

_WARMUP_S = 3.0
_SETUP_AGAIN_S = 1.0
_RTT_SAMPLES = 200


def environment(seed: int) -> dict:
    """What the numbers were taken on; printed with every result."""
    def git(*args: str) -> str | None:
        try:
            return subprocess.run(
                ["git", "-C", str(_ROOT), *args], capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
        "crypto_backend": KeyChain.from_seed(0).cipher.backend_name,
        "obs_enabled": OBS.enabled,
    }


def refuse_unless_default(env: dict) -> None:
    if env["obs_enabled"]:
        sys.exit("run.py: refusing to measure with OBS enabled")
    if env["crypto_backend"] != DEFAULT_BACKEND:
        sys.exit(f"run.py: refusing to measure the {env['crypto_backend']!r} "
                 f"crypto backend; the default is {DEFAULT_BACKEND!r}")


# ----------------------------------------------------------------------
# one workload, one pass, in this process
# ----------------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 quick: bool, trace_out: str | None) -> dict:
    verifier = Verifier(workload, seed)
    items = verifier.initial_items()
    setup_spans: list[tuple[float, float]] = []

    def deploy() -> Deployment:
        deployment = Deployment(workload, seed, items)
        setup_spans.append(deployment.setup_span)
        return deployment

    def set_up_again() -> None:
        """Time further set-ups, each on a fresh storage process, for
        ``_SETUP_AGAIN_S`` (at least one).  Called before and after the
        window, so that ``setup_s`` is the median of at least three."""
        if quick or trace:
            return
        until = time.perf_counter() + _SETUP_AGAIN_S
        while True:
            deploy().close()
            gc.collect()
            if time.perf_counter() >= until:
                return

    tracer = reference = None
    with HostProbe() as probe:
        set_up_again()
        deployment = deploy()
        try:
            datastore = deployment.datastore
            driver = make_driver(workload, seed, datastore, verifier)
            low, top = workload.rates[:1], workload.rates[-1:]
            warm = driver.measure(0.5 if quick else _WARMUP_S, rates=low)
            if trace:
                reference = driver.measure(seconds / 5, rates=top)
                tracer = Tracer()
                tracer.install(datastore)
                stats_from = len(datastore.proxy.totals.stats_by_round)
                window = driver.measure(seconds * 4 / 5, tracer=tracer)
                round_stats = datastore.proxy.totals.stats_by_round[stats_from:]
                rtts = []
                for _ in range(_RTT_SAMPLES):
                    start = time.perf_counter()
                    len(deployment.store)
                    rtts.append(time.perf_counter() - start)
            else:
                # Only the open loop's lowest and highest rates feed an
                # end-to-end metric, so they share the whole window.
                window = driver.measure(seconds, rates=low + top)
                # Read before the set-ups below run beside the live datastore.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            overhead = datastore.proxy.keychain.cipher.ciphertext_overhead()
            # An object lives in the cache or at the server, never both, so a
            # round that wrote as much as it read leaves N + D - C outsourced.
            invariants = {"server_size == N + D - C": datastore.server_size
                          == workload.n + workload.d - workload.c}
        finally:
            deployment.close()
        set_up_again()
    clock = probe.clock()

    if trace:
        values = metric_fns.per_layer(workload, tracer, window, reference,
                                      clock, round_stats, rtts)
        expected = SPEC["per_layer"]
        invariants.update({
            "round shape (B read, B deleted, B written, ids read once)":
                tracer.shape_violations == 0,
            "trace.budget_gap_frac <= 0.02":
                values["trace.budget_gap_frac"][0] <= 0.02,
        })
        if trace_out:
            tracer.dump(trace_out)
    else:
        values = metric_fns.end_to_end(workload, window, clock, overhead)
        wall = metric_fns.end_to_end(workload, window, WallClock, overhead)
        print("  wall-clock: " + " ".join(
            f"{name}={wall[name][0]:.4f}" for name in
            ("throughput_ops_s", "latency_p50_ms", "latency_p95_ms")))
        values["peak_rss_mb"] = (peak_rss_mb, None)
        setups = [float(clock.quiet(*span)) for span in setup_spans]
        values["setup_s"] = (statistics.median(setups), len(setups))
        print("  set-ups, host-clock s: "
              + " ".join(f"{t:.3f}" for t in setups))
        expected = SPEC["end_to_end"]
    first, last = window.steps[0], window.steps[-1]
    print(f"  host slowdown over the window: "
          f"{clock.slowdown(first.start, last.start + last.seconds):.3f}")

    units = {metric["name"]: metric["unit"] for metric in expected}
    if set(units) != set(values):
        raise AssertionError(
            f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    attempted, failed = metric_fns.count_failures(window)
    failed += sum(step.errors + step.wrong for step in warm.steps)
    for name, held in invariants.items():
        if not held:
            print(f"INVARIANT BROKEN: {name}")
    _print_pass(workload, window, values, units)
    return {
        "correct": failed == 0 and all(invariants.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }


def _print_pass(workload: Workload, window: Window, values: dict,
                units: dict) -> None:
    for step in window.steps:
        late = metric_fns.percentile(step.lateness, 99) * 1e3
        p99 = metric_fns.percentile(step.latencies, 99) * 1e3
        print(f"  step rate={step.rate or 'closed'} {step.seconds:.2f}s "
              f"attempted={step.attempted} completed={step.completed} "
              f"shed={step.shed} errors={step.errors} wrong={step.wrong} "
              f"p99={p99:.3f}ms gen.lateness_ms_p99={late:.3f}")
    for name, unit in units.items():
        value, samples = values[name]
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {workload.name:16s} {name:34s} {value:14.4f} {unit}{count}")


# ----------------------------------------------------------------------
# a full set, one child interpreter per workload and pass
# ----------------------------------------------------------------------
def run_set(seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """``{workload: {"end_to_end": result[, "per_layer": result]}}``."""
    results: dict = {}
    for name in WORKLOADS:
        results[name] = {}
        for traced in (False, True) if trace else (False,):
            command = [sys.executable, str(_HERE / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(int(traced))]
            if quick:
                command.append("--quick")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   env=child_env())
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 and not (lines
                                              and lines[-1].startswith("{")):
                sys.exit(f"run.py: {name} (trace={int(traced)}) exited "
                         f"{child.returncode}")
            key = "per_layer" if traced else "end_to_end"
            results[name][key] = json.loads(lines[-1])
    return results


def flatten(results: dict, group: str) -> dict:
    """``{workload: {metric: value}}`` of one metric group of a set."""
    return {name: {metric: entry["value"] for metric, entry
                   in passes[group]["metrics"].items()}
            for name, passes in results.items() if group in passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer pass (with --workload: instead of, "
                             "without: after, the end-to-end pass)")
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows, short warm-up, one set-up")
    parser.add_argument("--trace-out", help="write the spans as JSON lines "
                                            "(needs --workload and --trace)")
    parser.add_argument("--history", action="store_true",
                        help=f"append the set's end-to-end metrics to "
                             f"{HISTORY.name}")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.quick else float(SPEC["run_seconds"]))

    env = environment(args.seed)
    refuse_unless_default(env)
    print("env " + json.dumps(env), flush=True)

    if args.workload:
        print(f"{args.workload}: trace={args.trace} seconds={seconds}",
              flush=True)
        result = run_workload(WORKLOADS[args.workload], args.seed, seconds,
                              bool(args.trace), args.quick, args.trace_out)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = run_set(args.seed, seconds, bool(args.trace), args.quick)
    correct = all(result["correct"] for passes in results.values()
                  for result in passes.values())
    if args.history:
        with HISTORY.open("a") as out:
            out.write(json.dumps({**env, "seconds": seconds,
                                  "end_to_end": flatten(results,
                                                        "end_to_end")}) + "\n")
    print(json.dumps({"env": env, "correct": correct, "results": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
