"""Every example script must at least compile and import-resolve.

CI's ``tests`` job runs all of them end to end (one Python version;
about 30 s in all); this keeps them from bit-rotting between runs.
"""

import ast
import importlib
import pathlib
import py_compile

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"),
                       doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every top-level `import repro...` target must exist."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


def test_expected_example_set():
    names = {path.name for path in EXAMPLES}
    assert {"quickstart.py", "ycsb_comparison.py", "security_analysis.py",
            "correlated_queries.py", "parameter_tuning.py",
            "fault_tolerance.py",
            "networked_deployment.py"} <= names


def test_examples_have_docstrings_and_main():
    for path in EXAMPLES:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert "main" in names, f"{path.name} lacks main()"


import subprocess
import sys


@pytest.mark.parametrize("script", ["quickstart.py", "fault_tolerance.py"])
def test_fast_examples_run_end_to_end(script):
    """The fastest examples actually execute in tier-1 (CI runs the rest;
    all are compile-checked above).  ``fault_tolerance.py`` is
    the replication class's one shipping caller outside the chaos
    harness, and asserts its own α/β bounds."""
    path = pathlib.Path(__file__).parent.parent / "examples" / script
    result = subprocess.run([sys.executable, str(path)],
                            capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
