"""Tests for the oblint static-analysis suite (DESIGN.md §9).

Two directions of coverage:

* every rule fires on its planted known-bad fixture — and *only* that
  rule, so the rules do not step on each other;
* the shipped source tree lints clean, with inline suppressions as the
  only exceptions, which is what keeps the invariants enforced going
  forward.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, default_rules, run_lint

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
FIXTURE_FILES = sorted(FIXTURES.glob("obl*.py"))


def expected_rule(fixture: Path) -> str:
    return "OBL" + fixture.stem[3:6]


class TestFixturesFireExactlyTheirRule:
    """Each planted known-bad snippet triggers its rule and nothing else."""

    def test_every_rule_has_a_fixture(self):
        covered = {expected_rule(f) for f in FIXTURE_FILES}
        # OBL004 (stray artifact) is not a Python file; it is covered below.
        plantable = {rule.id for rule in ALL_RULES} | {"OBL001", "OBL002"}
        assert covered == plantable

    @pytest.mark.parametrize("fixture", FIXTURE_FILES,
                             ids=[f.stem for f in FIXTURE_FILES])
    def test_fixture_fires_exactly_its_rule(self, fixture):
        report = run_lint([fixture])
        fired = {finding.rule for finding in report.findings}
        assert fired == {expected_rule(fixture)}, report.describe()

    def test_secret_flow_fixture_names_the_planted_line(self):
        fixture = FIXTURES / "obl101_secret_to_server.py"
        report = run_lint([fixture])
        (finding,) = report.findings
        planted = fixture.read_text().splitlines()[finding.line - 1]
        assert "store.get" in planted

    def test_lock_bypass_fixture_flags_only_the_unlocked_write(self):
        fixture = FIXTURES / "obl401_unlocked_write.py"
        report = run_lint([fixture])
        (finding,) = report.findings
        planted = fixture.read_text().splitlines()
        assert planted[finding.line - 1].strip() == "self.count += 1"
        # the locked twin of the same statement is *not* flagged
        assert planted.index("            self.count += 1") != finding.line - 1

    @pytest.mark.parametrize("home, fires", [
        ("repro/cli.py", {"OBL501"}), ("repro/bench/planted.py", {"OBL501"}),
        (None, set()),  # a script outside any package is not gated
    ])
    def test_typing_gate_covers_the_whole_package(self, tmp_path, home,
                                                  fires):
        planted = tmp_path / "planted.py"
        header = f"# oblint-fixture-path: {home}\n" if home else ""
        planted.write_text(header + "def f(x):\n    return x\n")
        report = run_lint([planted])
        assert {finding.rule for finding in report.findings} == fires


class TestSourceTreeLintsClean:
    """The enforcement direction: src/repro is clean, so any new
    violation fails CI."""

    def test_src_repro_lints_clean(self):
        report = run_lint([ROOT / "src" / "repro"])
        assert report.ok, report.describe()
        # warnings must not accumulate either
        assert report.findings == [], report.describe()
        assert report.files_checked > 80


class TestSuppressionAndAllowlistMechanics:
    def test_reasoned_suppression_suppresses(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent("""\
            import time


            def deadline() -> float:
                return time.time()  # oblint: disable=OBL201 -- test stub
        """))
        report = run_lint([target])
        assert report.findings == []
        assert [rule for (finding, _) in report.suppressed
                for rule in [finding.rule]] == ["OBL201"]

    def test_reasonless_suppression_does_not_suppress(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent("""\
            import time


            def deadline() -> float:
                return time.time()  # oblint: disable=OBL201
        """))
        report = run_lint([target])
        fired = {finding.rule for finding in report.findings}
        assert fired == {"OBL001", "OBL201"}

    def test_stray_artifact_reports_obl004(self, tmp_path):
        (tmp_path / "mod.py").write_text("X = 1\n")
        (tmp_path / "mod.py.tmp").write_text("X = 2  # half-saved edit\n")
        (tmp_path / "merge.orig").write_text("conflict leftovers\n")
        report = run_lint([tmp_path])
        fired = sorted((f.rule, Path(f.path).name) for f in report.findings)
        assert fired == [("OBL004", "merge.orig"), ("OBL004", "mod.py.tmp")]
        assert not report.ok

    def test_direct_artifact_path_reports_obl004(self, tmp_path):
        stray = tmp_path / "notes.rej"
        stray.write_text("rejected hunk\n")
        report = run_lint([stray])
        assert [f.rule for f in report.findings] == ["OBL004"]

    def test_unparsable_file_reports_obl002(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        report = run_lint([target])
        assert [f.rule for f in report.findings] == ["OBL002"]
        assert not report.ok

    def test_report_json_is_machine_readable(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\n\n\ndef f() -> float:\n"
                          "    return time.time()\n")
        payload = run_lint([target]).to_json()
        decoded = json.loads(json.dumps(payload))
        assert decoded["errors"] == 1
        assert decoded["findings"][0]["rule"] == "OBL201"


class TestRuleRegistry:
    def test_rule_ids_unique_and_documented(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        package_doc = __import__("repro.lint", fromlist=["lint"]).__doc__
        for rule_id in ids:
            assert rule_id in package_doc

    def test_default_rules_are_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert {r.id for r in first} == {rule.id for rule in ALL_RULES}
        assert all(a is not b for a, b in zip(first, second))


class TestMypyStrictGate:
    """The other half of the typing gate; runs wherever mypy is
    installed (the CI lint job), skips where it is not."""

    def test_gated_packages_pass_mypy_strict(self, monkeypatch):
        api = pytest.importorskip("mypy.api")
        monkeypatch.setenv("MYPYPATH", str(ROOT / "src"))
        monkeypatch.chdir(ROOT)
        stdout, stderr, status = api.run([
            "--strict",
            "-p", "repro.crypto",
            "-p", "repro.core",
            "-p", "repro.ds",
            "-p", "repro.storage",
        ])
        assert status == 0, f"mypy --strict failed:\n{stdout}\n{stderr}"
