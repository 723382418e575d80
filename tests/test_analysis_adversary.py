"""The adversary on literal traces, and on a server with no round markers.

Each row of ``TRACES`` is a hand-written trace with every reading the
batch helpers used to give written out: the α values, the β values, the
ids written and still unread, and the first lifecycle breach (``None``
when every id was written once, read at most once, then deleted).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.net import RemoteStore, StorageServer
from repro.storage.recording import AccessRecord, RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation
from tests.conftest import make_items

W, R, D = "write", "read", "delete"

#: name: (trace of (op, id, round), id_log, alphas, betas, unread, breach)
TRACES = {
    "clean_lifecycle": (
        [(W, "a", 0), (R, "a", 1), (D, "a", 1)], None,
        [0], [], 0, None),
    "a_write_twice": (
        [(W, "a", 0), (W, "a", 2), (R, "a", 5)], None,
        [2], [], 0, "id a written twice (seq 1)"),
    "a_read_before_a_write": (
        [(R, "a", 0), (W, "b", 0)], None,
        [], [], 1, "id a read in state None (seq 0)"),
    "a_delete_before_a_read": (
        [(W, "a", 0), (D, "a", 1)], None,
        [], [], 1, "id a deleted in state 'written' (seq 1)"),
    "a_read_after_a_delete": (
        [(W, "a", 0), (R, "a", 3), (D, "a", 3), (R, "a", 4)], None,
        [2], [], 0, "id a read in state 'deleted' (seq 3)"),
    "a_rewrite_of_a_deleted_id": (
        [(W, "a", 0), (R, "a", 1), (D, "a", 1), (W, "a", 2)], None,
        [0], [], 1, "id a written twice (seq 3)"),
    "an_unread_id": (
        [(W, "a", 0), (W, "b", 0), (W, "c", 1), (R, "b", 2), (R, "a", 9)],
        None, [1, 8], [], 1, None),
    "one_beta_pair": (
        [(W, "a1", 0), (R, "a1", 2), (D, "a1", 2), (W, "a2", 7)],
        {"a1": "k", "a2": "k"}, [1], [5], 1, None),
    "a_skipped_dummy_key": (
        [(W, "d1", 0), (R, "d1", 1), (D, "d1", 1), (W, "d2", 1)],
        {"d1": "\x00dummy:0", "d2": "\x00dummy:0"}, [0], [], 1, None),
    "interleaved_beta_pairs": (
        [(W, "a1", 0), (W, "b1", 0), (R, "a1", 1), (R, "b1", 3),
         (W, "b2", 4), (W, "a2", 9)],
        {"a1": "ka", "a2": "ka", "b1": "kb", "b2": "kb"},
        [0, 2], [1, 8], 2, None),
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_literal_trace(name):
    entries, id_log, alphas, betas, unread, breach = TRACES[name]
    records = [AccessRecord(op, sid, rnd, seq)
               for seq, (op, sid, rnd) in enumerate(entries)]
    adversary = Adversary(id_log).feed(records)
    assert sorted(adversary.alpha_histogram.elements()) == alphas
    assert sorted(adversary.beta_histogram.elements()) == betas
    assert adversary.unread_ids == unread
    assert adversary.violation == breach
    assert adversary.accesses == len(entries)


def _seeded_run(datastore: WaffleDatastore, config: WaffleConfig) -> None:
    rng = random.Random(63)
    for _ in range(20):
        datastore.execute_batch([
            ClientRequest(op=Operation.WRITE, key=key, value=b"v")
            if rng.random() < 0.3 else ClientRequest(op=Operation.READ,
                                                     key=key)
            for key in (f"user{rng.randrange(config.n):08d}"
                        for _ in range(config.r))
        ])


def test_server_side_rounds_are_inferred():
    """One seeded run recorded in-process, and again behind a
    ``StorageServer`` over a ``RemoteStore``: the server-side recorder
    files every access under round 0, and the adversary numbering rounds
    from the burst structure reads the same α and the same verdict."""
    n = 120
    config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=40, c=20,
                          value_size=64, seed=61)
    local = WaffleDatastore(config, make_items(n),
                            keychain=KeyChain.from_seed(62))
    _seeded_run(local, config)

    server_view = RecordingStore(RedisSim(write_once=True))
    with StorageServer(server_view) as server:
        with RemoteStore(server.address) as remote:
            _seeded_run(WaffleDatastore(config, make_items(n), store=remote,
                                        record=False,
                                        keychain=KeyChain.from_seed(62)),
                        config)
    assert {r.round for r in server_view.records} == {0}

    marked = Adversary().feed(local.recorder.records)
    inferred = Adversary(infer_rounds=True).feed(server_view.records)
    assert marked.alpha_histogram == inferred.alpha_histogram
    assert marked.violation == inferred.violation is None
    assert marked.unread_ids == inferred.unread_ids
    assert marked.round_load() == inferred.round_load()
    # Without the inference every read lands in its write's round.
    assert set(Adversary().feed(server_view.records).alpha_histogram) == {-1}
