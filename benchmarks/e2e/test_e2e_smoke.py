"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e -q``.

Runs one ``--quick --trace`` set (2 s windows, about 45 s) and checks
that every metric BENCHMARK.json names is emitted for every workload,
that every reply verified, and that the layer budget adds up.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_set() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace"],
        capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_named_metric_is_emitted_for_every_workload(quick_set):
    assert quick_set["correct"]
    for workload in SPEC["workloads"]:
        passes = quick_set["results"][workload["name"]]
        for group in ("end_to_end", "per_layer"):
            result = passes[group]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            emitted = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
            assert emitted == expected
        for name, entry in passes["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, (workload["name"], name)


def test_layer_budget_adds_up(quick_set):
    for name, passes in quick_set["results"].items():
        layers = passes["per_layer"]["metrics"]
        assert layers["trace.budget_gap_frac"]["value"] <= 0.02, name
        assert layers["storage.reads_per_round"]["value"] \
            == layers["storage.writes_per_round"]["value"]


def test_result_carries_the_environment(quick_set):
    env = quick_set["env"]
    assert set(env) >= {"cpu_count", "python", "git_sha", "seed",
                        "crypto_backend", "obs_enabled"}
    assert env["crypto_backend"] == "pure" and env["obs_enabled"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "wire_closed_64b", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
