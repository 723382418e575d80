"""``tools/round_ab.py``: its round shapes are the benchmark's workloads,
and a run over one tree twice prints both sides and their ratio."""

import dataclasses
import importlib.util
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "round_ab.py"


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_shapes_are_the_benchmark_workloads():
    round_ab = _load(TOOL, "round_ab_under_test")
    workloads = _load(ROOT / "benchmarks" / "e2e" / "workloads.py",
                      "e2e_workloads_under_test").WORKLOADS
    assert set(round_ab.SHAPES) == set(workloads)
    shared = [f.name for f in dataclasses.fields(round_ab.Shape)
              if f.name != "rounds"]
    for name, shape in round_ab.SHAPES.items():
        for field in shared:
            assert getattr(shape, field) == getattr(workloads[name], field), \
                (name, field)


def test_a_run_prints_both_sides_and_the_ratio():
    # A tiny shape and four block pairs: the run's arithmetic, not a timing.
    script = textwrap.dedent(f"""\
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("round_ab", {str(TOOL)!r})
        round_ab = importlib.util.module_from_spec(spec)
        sys.modules["round_ab"] = round_ab
        spec.loader.exec_module(round_ab)
        round_ab.SHAPES = {{"tiny": round_ab.Shape(
            64, 10, 4, 2, 32, 8, 64, 0.5, None, rounds=2)}}
        round_ab.BLOCKS = 4
        sys.exit(round_ab.main([{str(ROOT)!r}, {str(ROOT)!r},
                                "--workload", "tiny"]))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "tiny: 4 block pairs of 2 rounds, thread CPU per round"
    assert lines[1].lstrip().startswith(f"parent {ROOT}: median ")
    assert lines[2].lstrip().startswith(f"change {ROOT}: median ")
    assert "change/parent: median " in lines[3]
    assert lines[3].endswith("/4 pairs")

