"""Unit tests for the chaos harness machinery itself.

Covers the fault plan, the injecting wrappers, episode generation /
validation / serialization, and the shrinker — everything below the
conformance layer, so conformance failures point at the system rather
than the harness.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    ConnectionDroppedError,
    is_retryable,
)
from repro.storage import PassthroughStore
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.testing import (
    FAULT_KINDS,
    Episode,
    FaultPlan,
    FaultyStorage,
    InjectedFault,
    generate_episode,
    shrink_episode,
)


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate(seed=9, horizon_ops=200, rate=0.1)
        b = FaultPlan.generate(seed=9, horizon_ops=200, rate=0.1)
        assert a.faults == b.faults
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(seed=1, horizon_ops=500, rate=0.1)
        b = FaultPlan.generate(seed=2, horizon_ops=500, rate=0.1)
        assert a.faults != b.faults

    def test_rate_zero_is_empty(self):
        assert len(FaultPlan.generate(seed=1, horizon_ops=100, rate=0.0)) == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(faults={3: "meteor-strike"})

    def test_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(faults={-1: "error"})

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(seed=1, horizon_ops=10, rate=1.5)


# ---------------------------------------------------------------------------
# FaultyStorage
# ---------------------------------------------------------------------------
def _loaded_store() -> RedisSim:
    store = RedisSim()
    store.multi_put((f"k{i}", b"v%d" % i) for i in range(10))
    return store


class TestFaultyStorage:
    def test_passthrough_without_faults(self):
        faulty = FaultyStorage(_loaded_store(), FaultPlan())
        assert faulty.multi_get(["k3"]) == [b"v3"]
        assert faulty.multi_get(["k1", "k2"]) == [b"v1", b"v2"]
        assert "k5" in faulty and len(faulty) == 10
        assert faulty.injected == {}

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_kind_raises_injected(self, kind):
        faulty = FaultyStorage(_loaded_store(), FaultPlan(faults={0: kind}))
        with pytest.raises(InjectedFault) as info:
            faulty.multi_get(["k0"])
        # Transport-level faults are retryable; a partial reply is a
        # protocol break — blind resend is unsafe, recovery goes through
        # failover-replay instead (which handles all four uniformly).
        assert is_retryable(info.value) == (kind != "partial")
        assert faulty.injected == {kind: 1}
        # The plan is positional: the next operation proceeds (after a
        # drop, on the re-opened connection).
        if kind == "drop":
            faulty.reconnect()
        assert faulty.multi_get(["k0"]) == [b"v0"]

    def test_faulted_op_never_reaches_inner(self):
        recorder = RecordingStore(_loaded_store())
        faulty = FaultyStorage(recorder, FaultPlan(faults={0: "timeout"}))
        with pytest.raises(InjectedFault):
            faulty.multi_get(["k1", "k2"])
        assert recorder.records == []
        faulty.multi_get(["k1", "k2"])
        assert [r.storage_id for r in recorder.records] == ["k1", "k2"]

    def test_commit_round_is_one_fault_point(self):
        recorder = RecordingStore(_loaded_store())
        faulty = FaultyStorage(recorder, FaultPlan(faults={0: "error"}))
        with pytest.raises(InjectedFault):
            faulty.commit_round(["k0"], [("new1", b"x")])
        # Nothing applied, nothing recorded: the round never happened.
        assert recorder.records == []
        assert "k0" in faulty and "new1" not in faulty
        # The retry consumes plan index 1 (clean) and applies atomically.
        faulty.commit_round(["k0"], [("new1", b"x")])
        assert "k0" not in faulty
        assert [(r.op, r.storage_id) for r in recorder.records] == \
            [("delete", "k0"), ("write", "new1")]

    def test_introspection_never_faults(self):
        faulty = FaultyStorage(_loaded_store(),
                               FaultPlan(faults={0: "error"}))
        assert "k0" in faulty
        assert len(faulty) == 10
        assert faulty.ops == 0  # introspection consumed no plan index


    def test_drop_is_sticky_until_reconnect(self):
        faulty = FaultyStorage(_loaded_store(), FaultPlan(faults={1: "drop"}))
        assert faulty.multi_get(["k0"]) == [b"v0"]
        with pytest.raises(ConnectionDroppedError):
            faulty.multi_get(["k1"])
        assert not faulty.connected
        # Every operation fails while down, without consuming plan indices
        # and without counting as a planned fault; introspection still
        # answers.
        ops_before = faulty.ops
        with pytest.raises(ConnectionDroppedError):
            faulty.multi_get(["k1"])
        with pytest.raises(ConnectionDroppedError):
            faulty.commit_round(["k1"], [])
        assert faulty.ops == ops_before
        assert faulty.injected == {"drop": 1}
        assert "k1" in faulty and len(faulty) == 10
        faulty.reconnect()
        assert faulty.connected
        assert faulty.multi_get(["k1"]) == [b"v1"]
        assert faulty.ops == ops_before + 1

    def test_non_drop_faults_do_not_stick(self):
        faulty = FaultyStorage(_loaded_store(),
                               FaultPlan(faults={0: "timeout", 1: "error"}))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faulty.multi_get(["k0"])
            assert faulty.connected
        assert faulty.multi_get(["k0"]) == [b"v0"]
        assert faulty.injected == {"timeout": 1, "error": 1}

    def test_reconnect_on_a_live_connection_changes_nothing(self):
        faulty = FaultyStorage(_loaded_store(), FaultPlan(faults={1: "drop"}))
        faulty.reconnect()
        assert faulty.multi_get(["k0"]) == [b"v0"]
        with pytest.raises(ConnectionDroppedError):
            faulty.multi_get(["k0"])
        assert faulty.ops == 2 and faulty.injected == {"drop": 1}


class TestPassthroughStore:
    def test_forwards_next_round_to_recorder(self):
        recorder = RecordingStore(_loaded_store())
        stack = PassthroughStore(PassthroughStore(recorder))
        assert stack.next_round() == 1
        assert recorder.round == 1

    def test_next_round_tolerates_plain_backend(self):
        assert PassthroughStore(_loaded_store()).next_round() is None


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------
class TestEpisodes:
    def test_generation_is_deterministic_and_valid(self):
        a = generate_episode(seed=11, standbys=2)
        b = generate_episode(seed=11, standbys=2)
        assert a.to_dict() == b.to_dict()
        assert a.validate() is None
        assert a.batch_count >= 2  # first and last slots are forced batches

    def test_json_round_trip(self, tmp_path):
        episode = generate_episode(seed=12, standbys=2,
                                   mutation_rate=0.3, fault_rate=0.1)
        path = tmp_path / "episode.json"
        episode.to_json(path)
        restored = Episode.from_json(path)
        assert restored.to_dict() == episode.to_dict()

    def test_validate_rejects_unknown_key(self):
        episode = generate_episode(seed=13)
        episode.ops[0]["requests"][0] = ["read", "never-inserted"]
        assert "not live" in episode.validate()

    def test_validate_rejects_standby_ops_outside_quorum(self):
        # One standby with the majority quorum of two cannot lose it.
        episode = generate_episode(seed=14, standbys=1)
        episode.ops.insert(1, {"type": "fail_standby", "standby": 0})
        assert "below quorum" in episode.validate()

    def test_validate_rejects_oversized_batch(self):
        episode = generate_episode(seed=15)
        batch = next(op for op in episode.ops if op["type"] == "batch")
        batch["requests"] = [["read", "user00000001"]] * (
            episode.config["r"] + 1)
        assert "exceeds R" in episode.validate()

    def test_validate_tracks_insert_liveness(self):
        # Reading an inserted key before a batch drains the insert is
        # invalid; after a batch it is valid.
        episode = Episode(seed=1, ops=[
            {"type": "insert", "key": "fresh", "value": "v"},
            {"type": "batch", "requests": [["read", "fresh"]]},
        ])
        assert "not live" in episode.validate()
        episode = Episode(seed=1, ops=[
            {"type": "insert", "key": "fresh", "value": "v"},
            {"type": "batch", "requests": [["read", "user00000000"]]},
            {"type": "batch", "requests": [["read", "fresh"]]},
        ])
        assert episode.validate() is None

    def test_validate_rejects_use_after_delete(self):
        episode = Episode(seed=1, ops=[
            {"type": "delete", "key": "user00000003"},
            {"type": "batch", "requests": [["read", "user00000003"]]},
        ])
        assert "not live" in episode.validate()


# ---------------------------------------------------------------------------
# Shrinker (against a synthetic predicate: cheap and deterministic)
# ---------------------------------------------------------------------------
class TestShrinker:
    def test_shrinks_to_single_trigger_op(self):
        episode = generate_episode(seed=21, steps=20, fault_rate=0.05)
        # "Fails" iff the episode still contains a batch writing key k
        # (an arbitrary stand-in for a real trigger).
        trigger = None
        for op in episode.ops:
            if op["type"] == "batch":
                for request in op["requests"]:
                    if request[0] == "write":
                        trigger = request[1]
                        break
            if trigger:
                break
        assert trigger is not None

        def failing(candidate: Episode) -> bool:
            return any(
                request[0] == "write" and request[1] == trigger
                for op in candidate.ops if op["type"] == "batch"
                for request in op["requests"])

        result = shrink_episode(episode, failing)
        assert failing(result.episode)
        assert result.episode.validate() is None
        assert result.final_size <= 2
        assert result.final_size <= result.initial_size

    def test_non_failing_episode_returned_untouched(self):
        episode = generate_episode(seed=22)
        result = shrink_episode(episode, lambda e: False)
        assert result.episode is episode
        assert result.evaluations == 1

    def test_respects_evaluation_budget(self):
        episode = generate_episode(seed=23, steps=24)
        calls = 0

        def failing(candidate: Episode) -> bool:
            nonlocal calls
            calls += 1
            return True

        shrink_episode(episode, failing, max_evaluations=10)
        # One initial check plus at most the budget inside the passes.
        assert calls <= 12
