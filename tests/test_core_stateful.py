"""A stateful model of the datastore, checked against a dict.

Hypothesis drives one :class:`WaffleDatastore` with get/put batches,
inserts and deletes, and after every step checks it against a plain dict
of what the clients were told: the proxy's structural self-check, every
live key's value (read behind the proxy's back, so the check itself
touches nothing), exactly B reads, B deletes and B writes in every round,
and no storage id read twice.  A store may refuse one commit: from then
on every round, self-check and capture is refused, and only a restore
from the capture taken before the refusal serves again
(:attr:`WaffleProxy.failure`).  Two deployments: one with a cache large
enough for Algorithm 1's assumption ``C >= B - f_D + R``, one below it
(the small-cache regime).  A capture restored onto the same store
captures to the same bytes, and serves on.  Tier-1 runs a short
derandomized profile; the ``chaos`` marker runs a longer one.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import ROUND_ANSWER, WaffleDatastore, unpad_value
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError, ProtocolError
from repro.ha.checkpoint import capture_proxy, restore_proxy
from repro.storage.redis_sim import RedisSim
from repro.testing.faults import FaultPlan, FaultyStorage, InjectedFault
from repro.workloads.trace import Operation

#: C = 9 = B - f_D + R: Algorithm 1's assumption holds.
LARGE_CACHE = WaffleConfig(n=24, b=8, r=3, f_d=2, d=6, c=9, value_size=16,
                           seed=3)
#: C = 3 < B - f_D + R: a write-miss key can be evicted before its fetched
#: copy comes back in the same round.
SMALL_CACHE = WaffleConfig(n=24, b=8, r=3, f_d=2, d=6, c=3, value_size=16,
                           seed=5)

values = st.binary(max_size=12)  # value_size less the 4-byte header
#: Keys an insert offers: fresh ones, loaded ones, quotes, escapes,
#: non-ASCII and the dummy prefix (which must be refused).
new_keys = st.sampled_from([
    "k0", "k5", "fresh", "it's", 'say "hi"', "back\\slash", "tab\tkey",
    "été", "\U0001f9c7", "\x00dummy:", "\x00dummy:000000000001",
]) | st.text(min_size=1, max_size=4)


class DatastoreModel(RuleBasedStateMachine):
    config = LARGE_CACHE

    def __init__(self) -> None:
        super().__init__()
        cfg = self.config
        self.model = {f"k{i}": f"v{i}".encode() for i in range(cfg.n)}
        self.backing = RedisSim(write_once=True)
        self.datastore = WaffleDatastore(cfg, dict(self.model),
                                         store=self.backing,
                                         keychain=KeyChain.from_seed(11))
        self.proxy = self.datastore.proxy
        # Above the recorder, as a client-side connection sits: what the
        # store refuses never reaches the adversary's record.
        self.faulty = FaultyStorage(self.datastore.recorder, FaultPlan())
        self.proxy.store = self.faulty
        self.pending_inserts: dict[str, bytes] = {}
        self.pending_deletes: set[str] = set()
        self.read_ids: set[str] = set()
        self.checked_records = len(self.datastore.recorder.records)
        #: the capture taken just before a refused commit, until restored
        self.snapshot: bytes | None = None

    @property
    def failed(self) -> bool:
        return self.snapshot is not None

    def _ops(self, data: st.DataObject) -> list[tuple[str, bytes | None]]:
        """Up to R gets (``None``) and puts of live keys."""
        return data.draw(st.lists(
            st.tuples(st.sampled_from(sorted(self.model)),
                      st.none() | values),
            max_size=self.config.r))

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @precondition(lambda self: not self.failed)
    @rule(data=st.data(), answer_early=st.booleans())
    def batch(self, data: st.DataObject, answer_early: bool) -> None:
        """Up to R gets and puts of live keys in one round; each response
        is what a dict applying the batch in order says."""
        ops = self._ops(data)
        requests = _requests(ops)
        answered: list = []
        token = ROUND_ANSWER.set(answered.append if answer_early else None)
        try:
            responses = self.datastore.execute_batch(requests)
        finally:
            ROUND_ANSWER.reset(token)
        if answer_early:  # answered once, before the write-back, unpadded
            assert answered == [responses]
        expected = []
        for key, value in ops:
            if value is not None:
                self.model[key] = value
            expected.append((key, self.model[key]))
        assert [(resp.key, resp.value) for resp in responses] == expected
        assert [resp.request_id for resp in responses] == \
            [request.request_id for request in requests]
        self._settle_mutations()

    @precondition(lambda self: not self.failed)
    @rule(data=st.data())
    def refused_batch(self, data: st.DataObject) -> None:
        """A batch the proxy can refuse cleanly — an unknown key, more
        than R requests, a repeated request id — is refused before the
        round begins: no access, no timestamp, no queued mutation taken."""
        live = sorted(self.model)
        requests = data.draw(st.sampled_from([
            [ClientRequest(Operation.READ, "ghost")],
            [ClientRequest(Operation.READ, live[0])] * 2,
            [ClientRequest(Operation.READ, key)
             for key in live[:self.config.r + 1]],
        ]))
        ts = self.proxy.ts
        with pytest.raises(ProtocolError):
            self.datastore.execute_batch(requests)
        assert self.proxy.ts == ts
        assert self.proxy.failure is None

    @precondition(lambda self: not self.failed)
    @rule(data=st.data())
    def refused_commit(self, data: st.DataObject) -> None:
        """The store refuses the next round's commit, after the round has
        read: the proxy fails with the refusal, and the round's writes
        reach neither the server, its record nor the model."""
        self.snapshot = capture_proxy(self.proxy)
        records = self.datastore.recorder.records
        before = len(records)
        # A round is one multi_get, then one commit_round.
        self.faulty.plan = FaultPlan({self.faulty.ops + 1: "error"})
        with pytest.raises(InjectedFault, match="commit_round") as refusal:
            self.datastore.execute_batch(_requests(self._ops(data)))
        assert self.proxy.failure is refusal.value
        assert [record.op for record in records[before:]] == \
            ["read"] * self.config.b
        # The refused round's reads belong to no committed round, and the
        # restored proxy may read those ids again.
        self.checked_records = len(records)

    @precondition(lambda self: self.failed)
    @rule(data=st.data(), call=st.sampled_from(
        ["execute_batch", "check_invariants", "capture_proxy"]))
    def refused_after_failure(self, data: st.DataObject, call: str) -> None:
        """A failed proxy refuses every round, self-check and capture,
        caused by its failure, before it touches the store."""
        proxy, ts = self.proxy, self.proxy.ts
        with pytest.raises(ProtocolError) as refused:
            if call == "execute_batch":
                self.datastore.execute_batch(_requests(self._ops(data)))
            elif call == "check_invariants":
                proxy.check_invariants()
            else:
                capture_proxy(proxy)
        assert refused.value.__cause__ is proxy.failure is not None
        assert proxy.ts == ts

    @precondition(lambda self: self.failed)
    @rule()
    def restore(self) -> None:
        """Only a proxy restored from the capture before the refusal
        serves again; the server never saw the refused round."""
        self.proxy = self.datastore.proxy = restore_proxy(
            self.snapshot, self.proxy.store)
        self.snapshot = None

    @precondition(lambda self: not self.failed)
    @rule()
    def capture_restore_capture(self) -> None:
        """A capture restored onto the same store captures to the same
        bytes; the restored proxy serves on in the original's place."""
        blob = capture_proxy(self.proxy)
        restored = restore_proxy(blob, self.proxy.store)
        assert capture_proxy(restored) == blob
        self.proxy = self.datastore.proxy = restored

    @precondition(lambda self: not self.failed)
    @rule(key=new_keys, value=values)
    def insert(self, key: str, value: bytes) -> None:
        proxy = self.proxy
        if key.startswith("\x00dummy:") or key in self.model:
            refusal = ConfigurationError
        elif proxy.dummy_count - len(self.pending_inserts) <= 0:
            refusal = ConfigurationError
        elif key in self.pending_inserts:
            refusal = ProtocolError
        else:
            self.datastore.insert(key, value)
            self.pending_inserts[key] = value
            return
        with pytest.raises(refusal):
            self.datastore.insert(key, value)

    @precondition(lambda self: not self.failed
                  and len(self.model) - len(self.pending_deletes)
                  > self.config.c + self.config.b)
    @rule(data=st.data())
    def delete(self, data: st.DataObject) -> None:
        key = data.draw(st.sampled_from(sorted(self.model))
                        | st.sampled_from(["ghost", *self.pending_inserts]))
        if key not in self.model:
            with pytest.raises(KeyNotFoundError):
                self.datastore.delete(key)
        elif key in self.pending_deletes:
            with pytest.raises(ProtocolError):
                self.datastore.delete(key)
        else:
            self.datastore.delete(key)
            self.pending_deletes.add(key)

    def _settle_mutations(self) -> None:
        """Queued inserts and deletes take effect in some later round; the
        model follows once the proxy has applied each."""
        for key in [k for k in self.pending_inserts
                    if self.proxy.contains_key(k)]:
            self.model[key] = self.pending_inserts.pop(key)
        for key in [k for k in self.pending_deletes
                    if not self.proxy.contains_key(k)]:
            del self.model[key]
            self.pending_deletes.remove(key)

    # ------------------------------------------------------------------
    # after every step
    # ------------------------------------------------------------------
    @invariant()
    def structure_holds(self) -> None:
        if self.failed:
            return  # refused_after_failure: the self-check is refused
        self.proxy.check_invariants()
        assert self.proxy.mutations.pending_inserts == len(self.pending_inserts)
        assert self.proxy.mutations.pending_deletes == len(self.pending_deletes)

    @invariant()
    def values_equal_the_dict(self) -> None:
        if self.failed:
            return  # the proxy's state is unknown until the restore
        proxy = self.proxy
        assert set(proxy._slots) == set(self.model)
        for key, value in self.model.items():
            slot = proxy._slots[key]
            if slot in proxy.cache:
                padded = proxy.cache.peek(slot)
            else:
                (sid,) = proxy._recall_ids([slot])
                padded = proxy.keychain.cipher.decrypt(self.backing._data[sid])
            assert unpad_value(padded) == value, key

    @invariant()
    def every_round_has_one_shape(self) -> None:
        """B reads, B deletes and B writes a round; no id is read twice."""
        records = self.datastore.recorder.records[self.checked_records:]
        self.checked_records += len(records)
        if self.failed:  # a refused call touches nothing
            assert not records
            return
        counts = Counter((record.round, record.op) for record in records)
        b = self.config.b
        for round_ in {record.round for record in records}:
            assert [counts[round_, op] for op in ("read", "delete", "write")
                    ] == [b, b, b], round_
        for record in records:
            if record.op == "read":
                assert record.storage_id not in self.read_ids
                self.read_ids.add(record.storage_id)


def _requests(ops: list[tuple[str, bytes | None]]) -> list[ClientRequest]:
    return [ClientRequest(Operation.READ, key) if value is None
            else ClientRequest(Operation.WRITE, key, value)
            for key, value in ops]


class SmallCacheModel(DatastoreModel):
    config = SMALL_CACHE


_TIER1 = settings(max_examples=12, stateful_step_count=25, deadline=None,
                  derandomize=True)
_LONG = settings(max_examples=200, stateful_step_count=60, deadline=None)


class TestDatastoreModel(DatastoreModel.TestCase):
    settings = _TIER1


class TestDatastoreModelSmallCache(SmallCacheModel.TestCase):
    settings = _TIER1


@pytest.mark.chaos
class TestDatastoreModelLong(DatastoreModel.TestCase):
    settings = _LONG


@pytest.mark.chaos
class TestDatastoreModelSmallCacheLong(SmallCacheModel.TestCase):
    settings = _LONG
