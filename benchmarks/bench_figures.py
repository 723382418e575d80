"""Regenerate every simulated-time figure: one test per experiment row.

``repro.bench.EXPERIMENTS`` (DESIGN.md §3) is the index.  Each row is run
at its committed parameters (``run``'s keyword defaults), rendered,
written to ``benchmarks/results/<run.__name__>.txt`` and held to its
``check`` — the paper-shape assertions at that size.  Seeded runs over
simulated time: a run on an unchanged tree rewrites every file
byte-for-byte, so afterwards

    git diff --exit-code benchmarks/results
    test -z "$(git status --porcelain benchmarks/results)"

say whether any figure moved (CI's `figures` step runs exactly that).

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q
"""

import pytest
from conftest import publish

from repro.bench import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_figure(name):
    experiment = EXPERIMENTS[name]
    params = experiment.parameters()
    result = experiment.run(**params)
    publish(experiment.run.__name__, experiment.render(result, params))
    experiment.check(result)
