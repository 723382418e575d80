"""Chaos coverage for the serving stack: faults and oracles.

The serving episode family splices a :class:`FaultyStorage` under the
async frontend's datastore and drives it with seeded open-loop
arrivals; the differential oracle then judges the committed trace
exactly like the batch-mode chaos harness does — replay prefixes,
batch shape, uniformity.  The live timing check is
``tests/test_serve.py``'s fixed-interval frontend test.
"""

from __future__ import annotations

import pytest

from repro.testing.serving import (
    ServingEpisode,
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

    def test_an_answer_whose_commit_is_refused_is_the_replays(
            self, monkeypatch):
        """Every round answers its clients early, before its commit, as
        ``repro.cli serve`` runs it.  A fault that lands after the answer
        (on ``commit_round``, the one operation after it) aborts an attempt
        whose clients already hold values; the replayed round must
        reproduce exactly what they were told, and the in-order model
        agrees with both.  The frontend hears the replay's answer once: one
        ``serve.round`` record a round."""
        from repro import obs
        from repro.core.datastore import ROUND_ANSWER
        from repro.testing import serving

        answers: dict[int, list[dict[int, bytes]]] = {}
        replays: dict[int, dict[int, bytes]] = {}
        retry_round = serving.retry_round

        def spy(deployment, ha, log, requests, batch_index, *rest):
            deliver = ROUND_ANSWER.get()

            def record(responses):
                answers.setdefault(batch_index, []).append(
                    {resp.request_id: resp.value for resp in responses})
                deliver(responses)

            token = ROUND_ANSWER.set(record)
            try:
                responses = retry_round(deployment, ha, log, requests,
                                        batch_index, *rest)
            finally:
                ROUND_ANSWER.reset(token)
            replays[batch_index] = {resp.request_id: resp.value
                                    for resp in responses}
            return responses

        monkeypatch.setattr(serving, "retry_round", spy)
        with obs.capture() as handle:
            result = run_serving_episode(ServingEpisode(seed=0))
        assert result.ok, result.violations
        assert len(handle.tracer.spans("serve.round")) == \
            result.rounds_committed
        assert sorted(answers) == sorted(replays) == \
            list(range(result.rounds_committed))
        answered_twice = [index for index, calls in answers.items()
                          if len(calls) == 2]
        assert answered_twice, "no fault landed after an answer"
        aborted = {attempt.batch_index for attempt in result.attempts
                   if not attempt.ok}
        for index in answered_twice:
            assert index in aborted
            first, replay = answers[index]
            assert first == replay == replays[index]
            for request_id, value in replays[index].items():
                assert result.delivered[request_id] == value
        assert len(result.delivered) == result.completed == \
            result.episode.requests

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

