"""Timing-leakage observatory: inference attacks on round-release times.

The adversary model everywhere else in this repo looks at *which*
storage ids a round touches; this benchmark looks at *when* rounds are
released.  Under on-fill batching (fire as soon as ``r`` requests
accumulate) the inter-round gaps are ``r / rate`` in expectation, so an
observer who only sees round-release instants recovers the offered load
by inverting gaps and localises a flash-crowd onset with a mean-shift
scan.  A fixed-interval schedule decouples release times from arrivals
and blinds both attacks.

Assertions (oracle-backed, machine independent — pure simulation on
:class:`repro.sim.clock.SimClock`):

* the on-fill schedule leaks: load-correlation and onset recovery
  combine to a leakage score well above noise;
* the fixed schedule scores below the oracle ceiling and strictly below
  on-fill (``check_timing_channel`` returns no violations).

Results are published to ``benchmarks/results/timing_attack.txt`` and,
as machine-readable JSON, to ``benchmarks/results/timing.json``.
Run standalone (``python benchmarks/bench_timing_attack.py``) or
through pytest-benchmark like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.analysis.timing import timing_attack_benchmark
from repro.testing.oracle import check_timing_channel

JSON_PATH = pathlib.Path(__file__).resolve().parent / "results" / "timing.json"


def _render(report: dict) -> str:
    on_fill = report["on_fill"]
    fixed = report["fixed"]
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
    for name, side in (("on_fill", on_fill), ("fixed", fixed)):
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


def _check(report: dict) -> None:
    violations = check_timing_channel(report)
    assert not violations, "; ".join(v.detail for v in violations)
    assert report["shaped_leaks_less"] is True
    assert report["on_fill"]["leakage_score"] > 0.5, (
        "on-fill schedule should leak visibly: "
        f"{report['on_fill']['leakage_score']:.3f}")


def run(rounds: int = 64, seed: int = 7) -> dict:
    return timing_attack_benchmark(rounds=rounds, seed=seed)


def test_timing_attack(benchmark):
    from conftest import emit_result

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_result("timing_attack", _render(report), data=report)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    _check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    report = run(rounds=args.rounds, seed=args.seed)
    print(_render(report))
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nreport -> {JSON_PATH}")
    _check(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
