"""Run two full sets on this commit and check that they agree.

    python3 benchmarks/e2e/check_repeat.py [--seed S]

Both sets use the same seed, so the inputs are identical and any
difference is the machine's.  For every end-to-end metric on every
workload it prints both values and whether the second is within the
metric's ``bound`` (BENCHMARK.json) of the first, in either direction.
Exits non-zero if any pair disagrees or any run was incorrect.
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = float(run.SPEC["run_seconds"])

    sets, correct = [], True
    for _ in range(2):
        results = run.run_set(args.seed, seconds, trace=False, quick=False)
        correct &= all(passes["end_to_end"]["correct"]
                       for passes in results.values())
        sets.append(run.flatten(results, "end_to_end"))

    disagreements = 0
    print(f"{'workload':16s} {'metric':22s} {'first':>14s} {'second':>14s} "
          f"{'change':>8s} {'bound':>6s}")
    for metric in run.SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            first, second = sets[0][workload][name], sets[1][workload][name]
            change = (second - first) / first
            agree = abs(change) <= bound
            disagreements += not agree
            print(f"{workload:16s} {name:22s} {first:14.4f} {second:14.4f} "
                  f"{change:+8.3f} {bound:6.2f} {'ok' if agree else 'DISAGREE'}")
    print(f"{disagreements} disagreement(s); "
          f"every run correct: {correct}")
    return 0 if correct and not disagreements else 1


if __name__ == "__main__":
    sys.exit(main())
