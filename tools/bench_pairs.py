#!/usr/bin/env python3
"""Alternating parent/change runs of the wall-clock benchmark, tabulated.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR
        [--workload W] [--pairs N] [--seconds S] [--trace] [--seed FIRST]

Runs ``BENCHMARK.json``'s command in each directory (two exports of the
repository: see the verify skill for how to make them) strictly in turn —
one pair per seed, the side that goes first swapping every pair — and reads
the JSON on each run's last stdout line.  Per workload and metric it prints
every run, each side's median and quartiles, the ratio of the medians and
how many pairs the change won (a tie counts for neither; BENCHMARK.json
says which direction is better).  ``--trace`` asks for the per-layer pass:
with ``--workload`` its metrics are tabulated instead, without it only
``host.slowdown`` is added.  Exit status 1 if any run was incorrect or had
a failed operation.

Stdlib only; imports nothing from ``benchmarks/e2e`` and edits nothing.
``run.py --compare SHA`` (ROADMAP item 1b) supersedes this file when the
benchmark PR lands.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"]
          for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_once(directory: str, extra: list[str]) -> dict[str, dict]:
    """One run in ``directory``: ``{workload: result}`` from its last line."""
    child = subprocess.run(SPEC["command"] + extra, cwd=directory,
                           stdout=subprocess.PIPE, text=True)
    try:
        report = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{directory}: no JSON on the last line of stdout "
                 f"(exit {child.returncode})")
    if "results" not in report:  # one pass: --workload W
        return {extra[extra.index("--workload") + 1]: report}
    results = {}
    for workload, passes in report["results"].items():
        results[workload] = dict(passes["end_to_end"])
        slowdown = passes.get("per_layer", {}).get("metrics", {}) \
            .get("host.slowdown")
        if slowdown is not None:
            results[workload]["metrics"] = {**results[workload]["metrics"],
                                            "host.slowdown": slowdown}
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=1, help="the first "
                        "pair's seed; each later pair takes the next")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    extra = [] if args.workload is None else ["--workload", args.workload]
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    if args.trace or args.workload:
        extra += ["--trace", str(int(args.trace))]

    runs: dict[str, list[dict[str, dict]]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        for side in sorted(sides, reverse=pair % 2 == 0):
            print(f"pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr)
            runs[side].append(run_once(
                sides[side], extra + ["--seed", str(args.seed + pair)]))

    clean = True
    for workload, first in runs["parent"][0].items():
        for side in sides:
            bad = [n for n, run in enumerate(runs[side], 1)
                   if not run[workload]["correct"] or run[workload]["failed"]]
            if bad:
                clean = False
                print(f"{workload}: {side} runs {bad} incorrect or with "
                      "failed operations")
        for metric, entry in first["metrics"].items():
            values = {side: [run[workload]["metrics"][metric]["value"]
                             for run in runs[side]] for side in sides}
            better = BETTER.get(metric, "lower")
            sign = 1 if better == "higher" else -1
            wins = sum(sign * change > sign * parent for parent, change
                       in zip(values["parent"], values["change"]))
            print(f"{workload} {metric} ({entry['unit']}, {better} is better)")
            medians = {}
            for side in sides:
                low, medians[side], high = quartiles(values[side])
                print(f"  {side}: " + " ".join(f"{v:.6g}"
                                               for v in values[side])
                      + f" | median {medians[side]:.6g}"
                      f" quartiles {low:.6g} {high:.6g}")
            ratio = (medians["change"] / medians["parent"]
                     if medians["parent"] else float("nan"))
            print(f"  change/parent {ratio:.3f}, change better in "
                  f"{wins}/{args.pairs} pairs")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
