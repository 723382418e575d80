"""Mutation smoke test: the harness must catch bugs, not just pass.

A conformance suite that never fails is indistinguishable from one that
checks nothing.  These tests plant known invariant violations in the
storage path (via the runner's ``wrap_store`` hook) and require the
differential oracle to (a) flag the episode and (b) shrink it to a
small reproducer — the end-to-end proof that the harness has teeth.
"""

from __future__ import annotations

import pytest

from repro.testing import generate_episode, run_episode, shrink_episode
from repro.storage import PassthroughStore


class DropFirstWrite(PassthroughStore):
    """Loses the first written object of the first committed round."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = True

    def commit_round(self, deletes, puts):
        puts = list(puts)
        if self.armed and puts:
            puts = puts[1:]
            self.armed = False
        self._inner.commit_round(deletes, puts)


class DuplicateFirstWrite(PassthroughStore):
    """Writes the first object of the first round twice (same id)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = True

    def commit_round(self, deletes, puts):
        puts = list(puts)
        if self.armed and puts:
            puts = puts + [puts[0]]
            self.armed = False
        self._inner.commit_round(deletes, puts)


class SkipOneDelete(PassthroughStore):
    """Leaves one consumed read-once id on the server."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = True

    def commit_round(self, deletes, puts):
        deletes = list(deletes)
        if self.armed and deletes:
            deletes = deletes[1:]
            self.armed = False
        self._inner.commit_round(deletes, puts)


class MisfileFirstWrite(PassthroughStore):
    """Stores the first written object of the first round under a wrong id.

    The round still reads B and writes B and every response is still
    right; the trace-side oracle notices nothing until the object is due
    to be read, up to alpha rounds later, and then only as a crash."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = True

    def commit_round(self, deletes, puts):
        puts = list(puts)
        if self.armed and puts:
            sid, blob = puts[0]
            puts[0] = (sid[::-1], blob)
            self.armed = False
        self._inner.commit_round(deletes, puts)


@pytest.fixture
def episode():
    return generate_episode(seed=7, fault_rate=0.06, crash_rate=0.06)


def test_detects_lost_write(episode):
    result = run_episode(episode, wrap_store=DropFirstWrite)
    assert not result.ok
    # The missing write breaks the round's constant composition.
    assert any(v.kind == "shape" for v in result.violations)


def test_detects_duplicate_write(episode):
    result = run_episode(episode, wrap_store=DuplicateFirstWrite)
    assert not result.ok


def test_detects_skipped_delete(episode):
    result = run_episode(episode, wrap_store=SkipOneDelete)
    assert not result.ok
    assert any(v.kind == "shape" for v in result.violations)


def test_proxy_self_check_catches_misfiled_write(episode):
    """``check_invariants`` runs after every committed batch and has teeth:
    it names the object whose id is not on the server."""
    result = run_episode(episode, wrap_store=MisfileFirstWrite)
    first = result.violations[0]
    assert first.kind == "invariant"
    assert first.detail.startswith("after batch 0:")
    assert "not on the server" in first.detail


def test_planted_bug_shrinks_to_small_reproducer(episode):
    def failing(candidate):
        return not run_episode(candidate, wrap_store=DropFirstWrite).ok

    result = shrink_episode(episode, failing)
    assert failing(result.episode)
    assert result.episode.validate() is None
    # ISSUE acceptance: the reproducer is at most 10 client operations.
    assert result.final_size <= 10
    assert result.final_size < result.initial_size


def test_clean_run_stays_clean(episode):
    """Control: without a planted bug the same episode passes."""
    assert run_episode(episode).ok
