"""Literal pins of the two seeded chaos sweeps.

Both sweeps are pure functions of their seeds: which storage operation
each planned fault hits, how many rounds abort, fail over and reconnect,
and how many requests complete.  A change to the fault wrappers, the
runners' deploy step or the stores below them that moves *any* of these
counts has changed which operations the plan indices land on — the
property a replayed round's "re-read the same ids" argument rests on —
so the numbers are pinned exactly, not as bounds.
"""

from __future__ import annotations

from repro.testing import run_sweep
from repro.testing.serving import run_serving_sweep


def test_batch_sweep_is_pinned():
    report = run_sweep(episodes=100)
    assert report.ok, report.describe()
    assert (report.episodes, report.rounds_committed, report.failovers,
            report.aborted_attempts) == (100, 1256, 336, 229)
    assert report.faults_injected == {
        "drop": 63, "error": 67, "partial": 53, "timeout": 46}


def test_serving_sweep_is_pinned():
    report = run_serving_sweep(episodes=12, base_seed=0, requests=32)
    assert report.ok, report.describe()
    assert (report.episodes, report.rounds_committed,
            report.aborted_attempts, report.reconnects, report.completed,
            report.shed) == (12, 96, 8, 8, 384, 0)
