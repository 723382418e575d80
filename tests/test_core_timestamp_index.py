"""Tests for the real/dummy timestamp indexes."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.timestamp_index import DummyObjectIndex, RealObjectIndex
from repro.errors import ProtocolError
from repro.seeding import seeded_rng


class TestRealObjectIndex:
    def make(self, n=10):
        return RealObjectIndex(n)

    def test_all_keys_start_at_zero(self):
        index = self.make()
        assert all(index.timestamp(slot) == 0 for slot in range(10))
        assert index.server_resident_count == 0

    def test_residency_controls_candidacy(self):
        index = self.make(3)
        index.mark_server_resident(0)
        index.mark_server_resident(1)
        assert index.server_resident_count == 2
        assert index.is_server_resident(0)
        assert not index.is_server_resident(2)
        index.mark_cached(0)
        # Only resident slots are fake-query candidates (Algorithm 1 line 26).
        assert index.pop_min_keys(3, ts=1) == [1]
        assert index.server_resident_count == 0

    def test_min_follows_timestamps(self):
        index = self.make(3)
        for slot in (0, 1, 2):
            index.mark_server_resident(slot)
        index.set_timestamp(0, 5)
        index.set_timestamp(1, 2)
        index.set_timestamp(2, 9)
        assert index.pop_min_keys(2, ts=10) == [1, 0]
        # Selection stamps the slot and takes it out of candidacy.
        assert index.timestamp(1) == index.timestamp(0) == 10
        assert not index.is_server_resident(1)
        assert index.server_resident_count == 1

    def test_equal_timestamps_break_ties_fifo(self):
        """A freshly evicted slot is not preempted by later evictions that
        sort before it."""
        index = self.make(4)
        for slot in (3, 1, 2, 0):
            index.set_timestamp(slot, 7)
            index.mark_server_resident(slot)
        assert index.pop_min_keys(4, ts=8) == [3, 1, 2, 0]

    def test_set_timestamp_for_cached_key_kept_out_of_tree(self):
        index = self.make(2)
        index.set_timestamp(0, 7)
        assert index.timestamp(0) == 7
        assert index.server_resident_count == 0
        index.mark_server_resident(0)
        assert index.pop_min_keys(1, ts=8) == [0]

    def test_unknown_key_rejected(self):
        """Slots come from the proxy's key table; one beyond the table
        the index was sized for is refused, not grown into."""
        index = self.make(1)
        with pytest.raises(IndexError):
            index.set_timestamp(1, 1)
        with pytest.raises(IndexError):
            index.timestamp(1)

    def test_add_and_drop_key(self):
        """Insert support stamps a slot born in the cache; delete support
        takes a slot out of candidacy for good."""
        index = self.make(2)
        index.set_timestamp(1, 4)
        assert index.server_resident_count == 0  # born in the cache
        index.mark_server_resident(1)
        assert index.server_resident_count == 1
        index.mark_cached(1)
        assert not index.is_server_resident(1)
        assert index.server_resident_count == 0
        assert index.pop_min_keys(2, ts=5) == []

    def test_restamped_resident_key_queues_behind_earlier_arrivals(self):
        index = self.make(4)
        for slot in (0, 1, 2):
            index.mark_server_resident(slot)
        index.set_timestamp(1, 3)
        index.set_timestamp(2, 3)
        index.set_timestamp(0, 3)  # first to arrive at 0, last at 3
        assert index.pop_min_keys(3, ts=4) == [1, 2, 0]

    def test_key_evicted_below_the_minimum_is_selected_first(self):
        """A cached slot keeps the timestamp of its last read; evicted after
        selection has moved on, it is older than every resident slot."""
        index = self.make(4)
        index.set_timestamp(0, 1)  # read in round 1, cached since
        for slot, ts in ((1, 2), (2, 2), (3, 5)):
            index.set_timestamp(slot, ts)
            index.mark_server_resident(slot)
        assert index.pop_min_keys(1, ts=6) == [1]
        index.mark_server_resident(0)
        assert index.pop_min_keys(2, ts=7) == [0, 2]
        index.check_invariants()

    def test_emptied_bucket_is_not_revisited(self):
        index = self.make(4)
        for slot, ts in ((0, 1), (1, 1), (2, 4)):
            index.set_timestamp(slot, ts)
            index.mark_server_resident(slot)
        index.mark_cached(0)
        index.mark_cached(1)  # bucket 1 empties away from selection
        index.check_invariants()
        assert index.pop_min_keys(1, ts=5) == [2]
        assert index.pop_min_keys(1, ts=6) == []
        # The same timestamp can fill again later, and drains again.
        index.set_timestamp(3, 1)
        index.mark_server_resident(3)
        assert index.pop_min_keys(2, ts=7) == [3]
        assert index.server_resident_count == 0
        index.check_invariants()

    def test_count_beyond_the_resident_set_returns_what_there_is(self):
        index = self.make(5)
        for slot in (0, 1, 2):
            index.mark_server_resident(slot)
        index.set_timestamp(1, 2)
        assert index.pop_min_keys(10, ts=3) == [0, 2, 1]
        assert index.pop_min_keys(10, ts=4) == []
        assert index.pop_min_keys(0, ts=4) == index.pop_min_keys(-1, ts=4) == []

    def test_heap_stays_bounded_when_nothing_is_ever_selected(self):
        """The ``uniform`` policy never calls ``pop_min_keys``, the one
        place emptied buckets' heap entries are discarded."""
        index = self.make(4)
        index.mark_server_resident(0)
        for ts in range(1, 2000):
            index.set_timestamp(0, ts)
        index.check_invariants()
        assert len(index._heap) < 100
        assert index.pop_min_keys(1, ts=2000) == [0]
        assert index.timestamp(0) == 2000

    def test_check_invariants_has_teeth(self):
        index = self.make(3)
        index.mark_server_resident(0)
        index.check_invariants()
        index._timestamps[0] = 9  # restamped behind the buckets' back
        with pytest.raises(ProtocolError, match="not its own"):
            index.check_invariants()
        index._timestamps[0] = 0
        index._resident = 2
        with pytest.raises(ProtocolError, match="counts 2 resident"):
            index.check_invariants()
        index._resident = 1
        index._on_server[0] = 0  # flag cleared, bucket kept
        with pytest.raises(ProtocolError, match="flags 0"):
            index.check_invariants()
        index._on_server[0] = 1
        index._heap.clear()
        with pytest.raises(ProtocolError, match="missing from the real index"):
            index.check_invariants()

    def test_random_resident_key(self):
        index = self.make(20)
        for slot in range(20):
            index.mark_server_resident(slot)
        rng = random.Random(3)
        picks = {index.random_resident_key(rng) for _ in range(100)}
        assert len(picks) > 5  # genuinely spread
        assert all(index.is_server_resident(pick) for pick in picks)


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
        assert dict(index.items())["d3"] == 0
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
        assert all(dict(index.items())[key] == 0 for key in first + second)

    def test_stored_timestamp_tracks_last_access(self):
        index = self.make()
        (key,) = index.take_min_keys(1)
        index.record_access_many([key], 42)
        assert dict(index.items())[key] == 42

    def test_reshuffle_changes_order_but_preserves_stored_ts(self):
        index = self.make(d=16, reshuffle=True)
        first_epoch = self.epoch(index, 1, per_round=4)
        # The last end_round completed the epoch, so the reset has fired;
        # it must not touch what the storage ids are derived from.
        for position, key in enumerate(first_epoch):
            assert dict(index.items())[key] == 1 + position // 4
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
        assert dict(index.items())["fresh"] == 9
        with pytest.raises(KeyError):
            index.swap_in("fresh", 10)
        # The retired key is gone for good; the newcomer queues behind the
        # older dummies.
        assert sorted(self.epoch(index, 10))[-1] == "fresh"
        assert key not in self.epoch(index, 20)

    def test_check_invariants_has_teeth(self):
        index = self.make(d=4)
        index.check_invariants()
        (key,) = index.take_min_keys(1)
        with pytest.raises(ProtocolError, match="different keys"):
            index.check_invariants()  # taken, neither recorded nor retired
        index.record_access_many([key], 3)
        index.check_invariants()
        index._stored_ts[key] = 5  # the id moved on, the queue did not
        with pytest.raises(ProtocolError, match="ahead of its stored"):
            index.check_invariants()


SLOTS = list(range(8))
key_st = st.sampled_from(SLOTS)
ts_st = st.integers(0, 5)  # few values, so buckets are shared

real_ops = st.lists(st.one_of(
    st.tuples(st.just("resident"), key_st),
    st.tuples(st.just("cached"), key_st),
    st.tuples(st.just("stamp"), key_st, ts_st),
    st.tuples(st.just("drop"), key_st),
    st.tuples(st.just("add"), key_st, ts_st),
    st.tuples(st.just("pop"), st.integers(0, 4), ts_st),
    st.tuples(st.just("random"), st.integers(0, 2**16)),
), max_size=60)


class TestRealIndexAgainstModel:
    @given(real_ops)
    @settings(max_examples=200, deadline=None)
    def test_selects_like_a_sorted_reference(self, ops):
        """Under any mix of operations on real slots the index selects what
        brute force does: ``sorted(resident, key=(ts, arrival))``.  Slots
        5-7 start as non-real (dummies, in the proxy) until an ``add``."""
        index = RealObjectIndex(len(SLOTS))
        timestamps = dict.fromkeys(SLOTS[:5], 0)  # the real slots
        arrival_of: dict[int, int] = {}  # resident slots only
        arrivals = 0

        def in_order():
            return sorted(arrival_of,
                          key=lambda k: (timestamps[k], arrival_of[k]))

        for op, *args in ops:
            key = args[0]
            if op == "pop":
                count, ts = args
                expected = in_order()[:count]
                assert index.pop_min_keys(count, ts) == expected
                for k in expected:
                    timestamps[k] = ts
                    del arrival_of[k]
            elif op == "random":
                if arrival_of:
                    rank = random.Random(args[0]).randrange(len(arrival_of))
                    picked = index.random_resident_key(random.Random(args[0]))
                    assert picked == in_order()[rank]
            elif op == "add":  # insert: a slot becomes real, born cached
                if key not in timestamps:
                    index.set_timestamp(key, args[1])
                    timestamps[key] = args[1]
            elif key not in timestamps:
                continue  # the proxy only hands the index its real slots
            elif op == "resident":
                index.mark_server_resident(key)
                arrivals += 1
                arrival_of[key] = arrivals
            elif op == "cached":
                index.mark_cached(key)
                arrival_of.pop(key, None)
            elif op == "stamp":
                index.set_timestamp(key, args[1])
                timestamps[key] = args[1]
                if key in arrival_of:
                    arrivals += 1
                    arrival_of[key] = arrivals
            elif op == "drop":  # delete: the slot leaves for good
                index.mark_cached(key)
                del timestamps[key]
                arrival_of.pop(key, None)
            index.check_invariants()
            assert all(index.timestamp(k) == ts for k, ts in timestamps.items())
            assert index.server_resident_count == len(arrival_of)
            assert all(index.is_server_resident(k) == (k in arrival_of)
                       for k in SLOTS)


# One round: take ``count`` dummies, retire the first ``retired`` of them,
# record the rest, swap ``born`` new dummies in, end the round.
dummy_rounds = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)),
    max_size=40)


class TestDummyIndexAgainstModel:
    @given(dummy_rounds, st.booleans())
    @example([(3, 0, 0)] * 6, True)  # two epoch resets
    @example([(4, 1, 2)] * 8, True)  # resets while D changes
    @settings(max_examples=200, deadline=None)
    def test_selects_like_a_sorted_reference(self, rounds, reshuffle):
        """Selection is ``sorted(dummies, key=(ts, tiebreak, key))`` with
        one rng draw per dummy in a fixed order: constructor, recorded keys
        in order, swap-ins, and an epoch reset's shuffle then redraws."""
        keys = [f"d{i}" for i in range(6)]
        index = DummyObjectIndex(keys, seed=4, reshuffle=reshuffle)
        rng = seeded_rng(4)
        stored = dict.fromkeys(keys, 0)
        queued = {key: (0, rng.random()) for key in keys}
        accessed = born_total = 0

        for ts, (count, retired, born) in enumerate(rounds, start=1):
            expected = sorted(queued, key=lambda k: (*queued[k], k))[:count]
            taken = index.take_min_keys(count)
            assert taken == expected
            for key in taken:
                del queued[key]
            for key in taken[:retired]:
                assert index.retire(key) == stored.pop(key)
            rewritten = taken[retired:]
            index.record_access_many(rewritten, ts)
            for key in rewritten:
                stored[key] = ts
                queued[key] = (ts, rng.random())
            accessed += len(rewritten)
            for _ in range(born):
                key = f"born{born_total}"
                born_total += 1
                index.swap_in(key, ts)
                stored[key] = ts
                queued[key] = (ts, rng.random())
            index.end_round(ts)
            if reshuffle and stored and accessed >= len(stored):
                order = list(stored)
                rng.shuffle(order)
                queued = {key: (ts, rng.random()) for key in order}
                accessed = 0
            index.check_invariants()
            assert dict(index.items()) == stored


def _index_state(index):
    """Everything a ``RealObjectIndex`` holds, bucket and heap order
    included."""
    return (list(index._timestamps), bytes(index._on_server),
            [(ts, list(bucket)) for ts, bucket in index._buckets.items()],
            list(index._heap), index._resident)


# A history of scalar calls to start from, then the slots a bulk call takes.
prefix_ops = st.lists(st.one_of(
    st.tuples(st.just("resident"), key_st),
    st.tuples(st.just("cached"), key_st),
    st.tuples(st.just("stamp"), key_st, ts_st),
), max_size=30)
bulk_slots = st.lists(key_st, max_size=12)


class TestBulkCallsMatchTheScalarSequence:
    """Each bulk method leaves the index exactly as the scalar calls it
    replaces do, bucket arrival order and heap included."""

    @staticmethod
    def twins(prefix):
        indexes = RealObjectIndex(len(SLOTS)), RealObjectIndex(len(SLOTS))
        for index in indexes:
            for op, slot, *ts in prefix:
                if op == "resident":
                    index.mark_server_resident(slot)
                elif op == "cached":
                    index.mark_cached(slot)
                else:
                    index.set_timestamp(slot, *ts)
        return indexes

    @given(prefix_ops, bulk_slots)
    @example([("resident", 0), ("stamp", 0, 3)], [0, 1, 1, 0])  # re-arrivals
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mark_server_resident_many(self, prefix, slots):
        bulk, scalar = self.twins(prefix)
        bulk.mark_server_resident_many(slots)
        for slot in slots:
            scalar.mark_server_resident(slot)
        assert _index_state(bulk) == _index_state(scalar)
        bulk.check_invariants()

    @given(prefix_ops, bulk_slots, ts_st)
    @example([("resident", 0), ("resident", 1)], [0, 0, 2], 4)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mark_cached_many(self, prefix, slots, ts):
        bulk, scalar = self.twins(prefix)
        bulk.mark_cached_many(slots, ts)
        for slot in slots:
            scalar.mark_cached(slot)
            scalar.set_timestamp(slot, ts)
        assert _index_state(bulk) == _index_state(scalar)
        bulk.check_invariants()
