"""The experiment table (`repro.bench.EXPERIMENTS`) is the one index:
DESIGN §3, the results directory and the CLI all agree with it."""

import pathlib
import re

import pytest

from repro.bench import EXPERIMENTS
from repro.cli import main

ROOT = pathlib.Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"

IDS = ["fig2ab", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d",
       "table2", "fig4", "fig5", "fig6", "attack", "attack-frequency",
       "low-security-leak", "ablation-fake-policy", "leakage-profile",
       "ha-overhead", "workload-d", "timing-attack"]


def test_ids_are_the_documented_ones_in_order():
    assert list(EXPERIMENTS) == IDS


def test_every_id_is_in_design_section_3():
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 3. Experiment index"):
                     design.index("## 4. Invariants under test")]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.MULTILINE)
    assert documented == IDS


def test_every_row_is_complete():
    stems = [experiment.run.__name__ for experiment in EXPERIMENTS.values()]
    assert len(set(stems)) == len(stems)
    for name, experiment in EXPERIMENTS.items():
        assert experiment.paper.strip(), name
        assert len(experiment.paper.splitlines()) >= 2, name
        assert callable(experiment.render) and callable(experiment.check)


def test_results_directory_is_the_table():
    """Both directions: every row has a committed file and every
    committed figure has a row."""
    on_disk = {path.name for path in RESULTS.glob("*.txt")}
    expected = {experiment.run.__name__ + ".txt"
                for experiment in EXPERIMENTS.values()}
    assert on_disk == expected


def test_parameters_are_run_defaults_with_accepted_overrides():
    experiment = EXPERIMENTS["fig5"]
    assert experiment.parameters()["requests"] == 50_000
    # fig5 takes no `rounds`; None means "not given".
    params = experiment.parameters(n=200, rounds=9, requests=None)
    assert params["n"] == 200 and "rounds" not in params
    assert params["requests"] == 50_000
    assert EXPERIMENTS["timing-attack"].parameters(n=64) == {
        "rounds": 64, "seed": 7}


def test_cli_list_prints_every_id_with_its_title(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == IDS
    for line, experiment in zip(lines, EXPERIMENTS.values()):
        assert line.endswith(experiment.paper.splitlines()[0])


def test_cli_runs_fig4(capsys):
    """`fig4` had a bench and a committed result but no CLI entry."""
    assert main(["run", "fig4", "--n", "2048", "--rounds", "150"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Figure 4 - alpha histograms (N=2048)")
    assert "-- medium/uniform:" in out


@pytest.mark.parametrize("name", ["timing-attack", "workload-d",
                                  "ha-overhead"])
def test_cheap_rows_regenerate_their_committed_file(name, capsys):
    """A drifted figure fails tier-1, not only the figures job: bare
    `run()` renders the committed bytes, `check` holds, and `repro.cli
    run ID` with no flags prints the same."""
    experiment = EXPERIMENTS[name]
    committed = (RESULTS / f"{experiment.run.__name__}.txt").read_text()
    result = experiment.run()
    assert experiment.render(result, experiment.parameters()) + "\n" \
        == committed
    experiment.check(result)
    assert main(["run", name]) == 0
    assert capsys.readouterr().out == committed
