"""Public-surface sanity: exports, error hierarchy, version."""

import ast
import importlib
import pathlib

import pytest

import repro
from repro import errors

#: The exact, sorted ``__all__`` of the subpackages whose surface was cut
#: back to what a caller reaches.
PINNED_SURFACES = {
    "repro.analysis": [
        "Adversary", "AuditResult", "LeakageSummary",
        "cooccurrence_attack", "detect_onset", "frequency_analysis_attack",
        "histogram_difference", "load_inference_attack", "render_histogram",
        "replay_schedule", "security_audit", "timing_attack_benchmark"],
    "repro.lint": [
        "ALL_RULES", "Finding", "LintEngine", "LintReport", "Module",
        "Rule", "default_rules", "run_lint"],
    "repro.serve": [
        "AsyncFrontend", "AsyncServeClient", "FixedIntervalPolicy",
        "MaxWaitPolicy", "OnFillPolicy", "ReleasePolicy", "ServeServer",
        "make_policy"],
    "repro.workloads": [
        "Arrival", "ClickstreamModel", "CorrelatedWorkload",
        "FlashCrowdArrivals", "LatestWorkload", "Operation",
        "PoissonArrivals", "TraceRequest", "UniformSampler", "YcsbWorkload",
        "ZipfSampler", "workload_a", "workload_c", "workload_d"],
    "repro.testing": [
        "Attempt", "DEFAULT_CONFIG", "DEFAULT_PROFILES", "Episode",
        "EpisodeResult", "FAULT_KINDS", "FaultPlan", "FaultyStorage",
        "InjectedFault", "ScalarCipher", "ScalarPrf", "ShrinkResult",
        "SweepReport", "Violation", "assert_trace_identical",
        "generate_episode", "run_episode", "run_sweep", "scalar_keychain",
        "shrink_episode", "trace_digest"],
}


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "ConfigurationError", "StorageError", "KeyNotFoundError",
        "DuplicateKeyError", "IntegrityError", "ProtocolError",
        "ClosedError", "OverloadedError",
    ])
    def test_all_errors_derive_from_repro_error(self, name):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)

    def test_key_errors_carry_key(self):
        error = errors.KeyNotFoundError("k-123")
        assert error.key == "k-123"
        assert "k-123" in str(error)
        dup = errors.DuplicateKeyError("k-456")
        assert dup.key == "k-456"

    def test_storage_errors_are_storage_errors(self):
        assert issubclass(errors.KeyNotFoundError, errors.StorageError)
        assert issubclass(errors.DuplicateKeyError, errors.StorageError)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.crypto", "repro.ds", "repro.storage",
        "repro.sim", "repro.workloads", "repro.baselines",
        "repro.analysis", "repro.bench", "repro.ha", "repro.net",
        "repro.cli", "repro.serve", "repro.testing",
        "repro.obs", "repro.lint",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None, f"{module}.{name}"

    def test_crypto_surface_is_the_three_kernels(self):
        import repro.crypto
        import repro.crypto.backend as names

        assert sorted(repro.crypto.__all__) == [
            "AuthenticatedCipher", "KeyChain", "Prf"]
        # What benchmarks/e2e imports to label and police its runs.
        assert names.__all__ == ["DEFAULT_BACKEND", "ENV_VAR"]
        assert repro.crypto.AuthenticatedCipher.backend_name == \
            names.DEFAULT_BACKEND == "pure"

    def test_sim_surface_is_the_cost_model(self):
        import repro.sim

        assert repro.sim.__all__ == ["CostModel", "SimClock"]

    @pytest.mark.parametrize("module", sorted(PINNED_SURFACES))
    def test_subpackage_surface_is_pinned(self, module):
        """No allowlist, no trace file format, no admission class and no
        unused preset or config helper: a name added or dropped here is
        a decision, not drift."""
        exported = importlib.import_module(module).__all__
        assert sorted(exported) == PINNED_SURFACES[module]
        assert len(set(exported)) == len(exported)

    @pytest.mark.parametrize("package", ["sim", "bench"])
    def test_simulated_time_never_feeds_the_metrics_registry(self, package):
        """The registry carries wall-clock series only: no module of
        the figure instrument imports ``repro.obs``."""
        for path, name in _repro_imports(package):
            assert name != "repro.obs" and not name.startswith("repro.obs."), \
                path.name

    def test_only_the_datastore_pads(self):
        """Every outsourced value has one length (§3.1) and
        ``WaffleDatastore`` is the one place that pads and unpads: the HA
        group, the chaos runners, the figures and the examples build
        through it, never with the padding helpers."""
        examples = pathlib.Path(repro.__file__).parents[2] / "examples"
        for package in ("testing", "bench", "ha", examples):
            for path, name in _repro_imports(package):
                assert name.rsplit(".", 1)[-1] not in (
                    "pad_value", "unpad_value"), f"{path.name} imports {name}"

    def test_crypto_is_a_leaf(self):
        """The crypto kernels time and log nothing themselves (the
        proxy's phase spans do): ``repro.crypto`` imports nothing of
        ``repro`` but its own modules and ``repro.errors``."""
        for path, name in _repro_imports("crypto"):
            assert name == "repro.errors" or name.startswith(
                ("repro.crypto.", "repro.errors.")), \
                f"{path.name} imports {name}"

    def test_serving_stack_imports_no_native_crypto_wheel(self):
        """The wheels cost resident memory in every process (the
        benchmark's ``peak_rss_mb`` bound); a fresh interpreter that
        imported the whole serving stack must not have loaded them.  Nor
        ``_posixshmem``, the C module behind the stdlib's shared-memory
        segments: crypto runs on the round thread, and nothing below the
        serving frontend hands buffers to another process."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(repro.__file__).resolve().parents[1]
        probe = ("import sys, repro.serve, repro.net, repro.core, repro.obs; "
                 "print(sorted({m.split('.')[0] for m in sys.modules} "
                 "& {'cryptography', 'nacl', '_posixshmem'}))")
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_analysis_needs_no_scipy(self):
        """scipy is a dev extra: the χ² tail is the standard library's
        ``math.lgamma``, so importing the analysis, core and serving
        packages in a fresh interpreter never loads it."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(repro.__file__).resolve().parents[1]
        probe = ("import sys, repro.analysis, repro.core, repro.serve; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_every_public_module_has_docstring(self):
        import pathlib
        root = pathlib.Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            source = path.read_text()
            stripped = source.lstrip()
            assert stripped.startswith('"""') or stripped.startswith("'''"), \
                f"{path.relative_to(root)} lacks a module docstring"


def _repro_imports(package: str | pathlib.Path):
    """``(path, module)`` for each ``repro`` module (or name imported from
    one) that a file of ``repro.<package>`` (or under a directory)
    imports."""
    root = pathlib.Path(repro.__file__).parent / package
    assert root.is_dir(), root
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
                if node.module != "repro":
                    names.append(node.module)
            else:
                continue
            for name in names:
                if name == "repro" or name.startswith("repro."):
                    yield path, name
