"""Tests for the real/dummy timestamp indexes."""

import pytest

from repro.core.timestamp_index import DummyObjectIndex, RealObjectIndex


class TestRealObjectIndex:
    def make(self, n=10):
        return RealObjectIndex([f"k{i}" for i in range(n)], seed=1)

    def test_all_keys_start_at_zero(self):
        index = self.make()
        assert all(index.timestamp(f"k{i}") == 0 for i in range(10))
        assert index.server_resident_count == 0

    def test_residency_controls_candidacy(self):
        index = self.make(3)
        index.mark_server_resident("k0")
        index.mark_server_resident("k1")
        assert index.server_resident_count == 2
        assert index.is_server_resident("k0")
        assert not index.is_server_resident("k2")
        index.mark_cached("k0")
        # Only resident keys are fake-query candidates (Algorithm 1 line 26).
        assert index.pop_min_keys(3, ts=1) == [("k1", 0)]
        assert index.server_resident_count == 0

    def test_min_follows_timestamps(self):
        index = self.make(3)
        for key in ("k0", "k1", "k2"):
            index.mark_server_resident(key)
        index.set_timestamp("k0", 5)
        index.set_timestamp("k1", 2)
        index.set_timestamp("k2", 9)
        assert index.pop_min_keys(2, ts=10) == [("k1", 2), ("k0", 5)]
        # Selection stamps the key and takes it out of candidacy.
        assert index.timestamp("k1") == index.timestamp("k0") == 10
        assert index.server_resident_count == 1

    def test_equal_timestamps_break_ties_fifo(self):
        """A freshly evicted key is not preempted by later evictions that
        sort before it lexicographically."""
        index = self.make(4)
        for key in ("k3", "k1", "k2", "k0"):
            index.set_timestamp(key, 7)
            index.mark_server_resident(key)
        assert [key for key, _ in index.pop_min_keys(4, ts=8)] \
            == ["k3", "k1", "k2", "k0"]

    def test_set_timestamp_for_cached_key_kept_out_of_tree(self):
        index = self.make(2)
        index.set_timestamp("k0", 7)
        assert index.timestamp("k0") == 7
        assert index.server_resident_count == 0
        index.mark_server_resident("k0")
        assert index.pop_min_keys(1, ts=8) == [("k0", 7)]

    def test_unknown_key_rejected(self):
        index = self.make(1)
        with pytest.raises(KeyError):
            index.set_timestamp("nope", 1)
        with pytest.raises(KeyError):
            index.timestamp("nope")

    def test_add_and_drop_key(self):
        index = self.make(2)
        index.add_key("new", ts=4)
        assert "new" in index
        assert index.server_resident_count == 0  # born in the cache
        index.mark_server_resident("new")
        assert index.server_resident_count == 1
        with pytest.raises(KeyError):
            index.add_key("new", ts=5)
        index.drop_key("new")
        assert "new" not in index
        assert index.server_resident_count == 0

    def test_random_resident_key(self):
        import random
        index = self.make(20)
        for i in range(20):
            index.mark_server_resident(f"k{i}")
        rng = random.Random(3)
        picks = {index.random_resident_key(rng) for _ in range(100)}
        assert len(picks) > 5  # genuinely spread
        assert all(pick in index for pick in picks)


class TestDummyObjectIndex:
    def make(self, d=8, reshuffle=True):
        return DummyObjectIndex([f"d{i}" for i in range(d)], seed=2,
                                reshuffle=reshuffle)

    def epoch(self, index, first_ts, per_round=1):
        """One pass over all dummies, ``per_round`` at a time."""
        picked = []
        for step in range(len(index) // per_round):
            keys = index.take_min_keys(per_round)
            index.record_access_many(keys, first_ts + step)
            index.end_round(first_ts + step)
            picked.extend(keys)
        return picked

    def test_initial_state(self):
        index = self.make()
        assert len(index) == 8
        assert index.stored_timestamp("d3") == 0
        assert dict(index.items()) == {f"d{i}": 0 for i in range(8)}

    def test_accesses_rotate_through_all_dummies(self):
        index = self.make(d=6)
        assert sorted(self.epoch(index, 1)) == [f"d{i}" for i in range(6)]

    def test_no_double_pick_within_a_batch(self):
        """Keys taken for a batch are out of the selection tree until the
        batch records them, so one batch never reads a dummy twice."""
        index = self.make(d=6)
        first = index.take_min_keys(4)
        second = index.take_min_keys(4)
        assert len(first) == 4 and len(second) == 2
        assert not set(first) & set(second)
        assert index.take_min_keys(1) == []
        # The stored timestamps GetIndex needs are untouched meanwhile.
        assert all(index.stored_timestamp(key) == 0 for key in first + second)

    def test_stored_timestamp_tracks_last_access(self):
        index = self.make()
        (key,) = index.take_min_keys(1)
        index.record_access_many([key], 42)
        assert index.stored_timestamp(key) == 42

    def test_reshuffle_changes_order_but_preserves_stored_ts(self):
        index = self.make(d=16, reshuffle=True)
        first_epoch = self.epoch(index, 1, per_round=4)
        # The last end_round completed the epoch, so the reset has fired;
        # it must not touch what the storage ids are derived from.
        for position, key in enumerate(first_epoch):
            assert index.stored_timestamp(key) == 1 + position // 4
        # Same dummies next epoch, in a different selection order (round
        # robin would repeat the first epoch exactly).
        second_epoch = self.epoch(index, 5, per_round=4)
        assert sorted(second_epoch) == sorted(first_epoch)
        assert second_epoch != first_epoch

    def test_round_robin_never_reshuffles(self):
        index = self.make(d=4, reshuffle=False)
        first_epoch = self.epoch(index, 1)
        second_epoch = self.epoch(index, 5)
        assert first_epoch == second_epoch  # strict round robin

    def test_retire_and_swap_in(self):
        index = self.make(d=3)
        (key,) = index.take_min_keys(1)
        assert index.retire(key) == 0
        assert key not in index
        assert len(index) == 2
        index.swap_in("fresh", 9)
        assert index.stored_timestamp("fresh") == 9
        with pytest.raises(KeyError):
            index.swap_in("fresh", 10)
        # The retired key is gone for good; the newcomer queues behind the
        # older dummies.
        assert sorted(self.epoch(index, 10))[-1] == "fresh"
        assert key not in self.epoch(index, 20)
