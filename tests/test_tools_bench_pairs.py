"""``tools/bench_pairs.py`` against two directories whose
``benchmarks/e2e/run.py`` is a stub printing canned JSON: the order of the
runs, the table's arithmetic and the exit status."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

STUB = textwrap.dedent("""\
    import json, pathlib, sys
    args = sys.argv[1:]
    seed = int(args[args.index("--seed") + 1])
    here = pathlib.Path.cwd()
    with (here.parent / "calls.log").open("a") as log:
        log.write(f"{{here.name}} {{' '.join(args)}}\\n")
    result = {{
        "correct": True, "attempted": 100,
        "failed": {failed} if seed == 2 else 0,
        "metrics": {{
            "throughput_ops_s": {{"value": {scale} * (100 + seed),
                                  "unit": "ops/s"}},
            "latency_p50_ms": {{"value": 12 / {scale} + seed, "unit": "ms"}},
        }},
    }}
    print("env {{}}")
    print("  anything else the benchmark prints")
    if "--workload" in args:
        print(json.dumps(result))
    else:
        print(json.dumps({{"env": {{}}, "correct": True, "results": {{
            "batch_64b_mixed": {{"end_to_end": result, "per_layer": {{
                "metrics": {{"host.slowdown": {{"value": {scale},
                                               "unit": "ratio"}}}}}}}}}}}}))
""")


@pytest.fixture
def exports(tmp_path):
    def make(name, scale, failed=0):
        script = tmp_path / name / "benchmarks" / "e2e" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(STUB.format(scale=scale, failed=failed))
        return str(tmp_path / name)
    return tmp_path, make


def bench_pairs(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=60)


def test_runs_alternate_and_the_table_adds_up(exports):
    tmp_path, make = exports
    done = bench_pairs(make("parent", 1.0), make("change", 1.5),
                       "--workload", "batch_64b_mixed", "--pairs", "3",
                       "--seconds", "2")
    assert done.returncode == 0, done.stderr
    # One seed a pair, the side that goes first swapping every pair.
    tail = "--workload batch_64b_mixed --seconds 2.0 --trace 0 --seed"
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        f"{side} {tail} {seed}" for side, seed in [
            ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
            ("parent", 3), ("change", 3)]]
    assert done.stdout.splitlines() == [
        "batch_64b_mixed throughput_ops_s (ops/s, higher is better)",
        "  parent: 101 102 103 | median 102 quartiles 101.5 102.5",
        "  change: 151.5 153 154.5 | median 153 quartiles 152.25 153.75",
        "  change/parent 1.500, change better in 3/3 pairs",
        "batch_64b_mixed latency_p50_ms (ms, lower is better)",
        "  parent: 13 14 15 | median 14 quartiles 13.5 14.5",
        "  change: 9 10 11 | median 10 quartiles 9.5 10.5",
        "  change/parent 0.714, change better in 3/3 pairs",
    ]


def test_a_whole_set_reports_end_to_end_metrics_and_the_host_reading(exports):
    tmp_path, make = exports
    done = bench_pairs(make("parent", 1.0), make("change", 1.0),
                       "--pairs", "2", "--trace", "--seed", "7")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        "parent --trace 1 --seed 7", "change --trace 1 --seed 7",
        "change --trace 1 --seed 8", "parent --trace 1 --seed 8"]
    lines = done.stdout.splitlines()
    assert lines[0] == \
        "batch_64b_mixed throughput_ops_s (ops/s, higher is better)"
    # Equal runs are ties, and a tie is nobody's win.
    assert lines[3] == "  change/parent 1.000, change better in 0/2 pairs"
    assert lines[8:] == [
        "batch_64b_mixed host.slowdown (ratio, lower is better)",
        "  parent: 1 1 | median 1 quartiles 1 1",
        "  change: 1 1 | median 1 quartiles 1 1",
        "  change/parent 1.000, change better in 0/2 pairs"]


def test_a_failed_operation_on_either_side_fails_the_comparison(exports):
    _, make = exports
    done = bench_pairs(make("parent", 1.0), make("change", 1.5, failed=3),
                       "--workload", "batch_64b_mixed", "--pairs", "2")
    assert done.returncode == 1
    assert "batch_64b_mixed: change runs [2] incorrect or with failed " \
        "operations" in done.stdout


def test_a_run_that_prints_no_json_stops_the_comparison(exports):
    tmp_path, make = exports
    parent, change = make("parent", 1.0), make("change", 1.0)
    (tmp_path / "change" / "benchmarks" / "e2e" / "run.py").write_text(
        "print('Traceback')\nraise SystemExit(3)\n")
    done = bench_pairs(parent, change, "--pairs", "1")
    assert done.returncode != 0 and not done.stdout
    assert "no JSON on the last line" in done.stderr
