"""Chaos coverage for the serving stack: faults, oracles, live timing.

The serving episode family splices a :class:`FaultyStorage` under the
async frontend's datastore and drives it with seeded open-loop
arrivals; the differential oracle then judges the committed trace
exactly like the batch-mode chaos harness does — replay prefixes,
batch shape, uniformity.  The live timing check replays the PR-7
load-inference attack against a real server on the real clock.
"""

from __future__ import annotations

import pytest

from repro.testing.serving import (
    ServingEpisode,
    live_timing_report,
    run_serving_episode,
    run_serving_sweep,
)


class TestServingEpisode:
    def test_poisson_on_fill_episode_is_clean(self):
        result = run_serving_episode(ServingEpisode(seed=3))
        assert result.ok, result.violations
        assert result.completed == result.episode.requests
        assert result.rounds_committed > 0
        assert result.adversary is not None
        assert result.adversary.alpha_histogram  # uniformity oracle ran

    def test_flash_crowd_max_wait_episode_is_clean(self):
        result = run_serving_episode(ServingEpisode(
            seed=9, workload="flash_crowd", policy="max_wait"))
        assert result.ok, result.violations
        assert result.completed == result.episode.requests

    def test_faults_actually_fire_and_recover(self):
        """Across a seed range, some episode must abort and retry."""
        aborted = 0
        reconnects = 0
        for seed in range(6):
            result = run_serving_episode(ServingEpisode(
                seed=seed, fault_rate=0.12))
            assert result.ok, (seed, result.violations)
            aborted += result.aborted_attempts
            reconnects += result.reconnects
        assert aborted > 0, "fault plan never fired; chaos is vacuous"
        assert reconnects >= aborted

    def test_aborted_attempts_are_replay_prefixes(self):
        """Aborted attempts retry the same batch and stay prefix-sized.

        The episode's own judgement runs :func:`check_replay_prefix` on
        the raw recorder trace (a clean result proves byte-level prefix
        equality); here we additionally assert the attempt log's
        structure — every aborted attempt has a committing winner for
        the same batch, and never recorded more than the winner.
        """
        for seed in range(8):
            result = run_serving_episode(ServingEpisode(
                seed=seed, fault_rate=0.15))
            assert result.ok, (seed, result.violations)
            if result.aborted_attempts == 0:
                continue
            committed = {a.batch_index: a for a in result.attempts if a.ok}
            aborted = [a for a in result.attempts if not a.ok]
            assert aborted
            for attempt in aborted:
                winner = committed[attempt.batch_index]
                assert attempt.attempt_index < winner.attempt_index
                assert (attempt.end_seq - attempt.start_seq) <= \
                    (winner.end_seq - winner.start_seq)
            return
        pytest.fail("no episode aborted at fault_rate=0.15 across 8 seeds")

    def test_shedding_under_tiny_queue_is_not_a_violation(self):
        result = run_serving_episode(ServingEpisode(
            seed=5, queue_cap=4, rate=5000.0))
        assert result.ok, result.violations
        assert result.shed > 0
        assert result.completed + result.shed == result.episode.requests

    def test_proxy_self_check_runs_after_every_commit(self, monkeypatch):
        """A structural breach after a served round is an ``invariant``
        violation, exactly as in the batch harness."""
        from repro.core.proxy import WaffleProxy
        from repro.errors import ProtocolError

        def breached(proxy):
            raise ProtocolError("planted breach")

        monkeypatch.setattr(WaffleProxy, "check_invariants", breached)
        result = run_serving_episode(ServingEpisode(seed=3))
        found = [v for v in result.violations if v.kind == "invariant"]
        assert result.rounds_committed > 0
        assert len(found) == result.rounds_committed
        assert found[0].detail == "after batch 0: planted breach"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_serving_episode(ServingEpisode(seed=1, workload="zipfian"))


class TestServingSweep:
    def test_small_sweep_is_clean(self):
        report = run_serving_sweep(episodes=4, base_seed=40, requests=24)
        assert report.ok, report.describe()
        assert report.episodes == 4
        assert report.completed + report.shed == 4 * 24
        assert report.rounds_committed > 0
        assert "serving episodes" in report.describe()

    @pytest.mark.chaos
    def test_full_sweep_is_clean(self):
        report = run_serving_sweep(episodes=12, base_seed=0, requests=32,
                                   fault_rate=0.08)
        assert report.ok, report.describe()
        assert report.aborted_attempts > 0, \
            "a 12-episode sweep at 8% fault rate should see aborts"


class TestLiveTimingChannel:
    def test_fixed_interval_scores_zero_on_live_server(self):
        """On the live clock, only what the schedule commits to: every
        release sits on a grid tick, and the constant-gap schedule scores
        exactly 0.0.  A host stall across a tick is the one thing the
        policy cannot prevent; it leaves a whole-tick hole, never an
        off-grid release.  How much *more* on-fill leaks depends on how the
        host schedules a 0.4 s window, so that comparison is held on
        simulated time (tests/test_analysis_timing.py)."""
        fixed = live_timing_report(seed=2, rate=500.0, duration_s=0.4)["fixed"]
        assert fixed["rounds"] > 0
        assert fixed["gap_ticks"][0] == 1.0
        assert all(ticks == int(ticks) for ticks in fixed["gap_ticks"])
        if fixed["gap_ticks"] == [1.0]:
            assert fixed["leakage_score"] == 0.0

    def test_live_report_shape_matches_oracle_contract(self):
        timing = live_timing_report(seed=4, rate=400.0, duration_s=0.3)
        for policy_key in ("on_fill", "fixed"):
            section = timing[policy_key]
            assert set(section) >= {"policy", "rounds", "leakage_score",
                                    "onset_gap", "seed"}
        assert timing["seed"] == 4
