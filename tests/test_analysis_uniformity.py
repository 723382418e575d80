"""α/β measurement and the storage-id lifecycle, read by the adversary."""

from collections import Counter

import pytest

from repro.analysis import Adversary
from repro.errors import ProtocolError
from repro.storage.recording import AccessRecord


def trace(*entries) -> list[AccessRecord]:
    """entries: (op, storage_id, round)."""
    return [AccessRecord(op, sid, rnd, seq)
            for seq, (op, sid, rnd) in enumerate(entries)]


def adversary(*entries, id_log=None, **options) -> Adversary:
    return Adversary(id_log, **options).feed(trace(*entries))


def alphas(adv: Adversary) -> list[int]:
    return sorted(adv.alpha_histogram.elements())


def betas(adv: Adversary) -> list[int]:
    return sorted(adv.beta_histogram.elements())


class TestInvariantChecker:
    def test_valid_lifecycle_passes(self):
        adversary(
            ("write", "a", 0), ("read", "a", 1), ("delete", "a", 1),
        ).check_lifecycle()

    def test_double_write_rejected(self):
        with pytest.raises(ProtocolError):
            adversary(
                ("write", "a", 0), ("write", "a", 1),
            ).check_lifecycle()

    def test_read_before_write_rejected(self):
        with pytest.raises(ProtocolError):
            adversary(("read", "a", 0)).check_lifecycle()

    def test_double_read_rejected(self):
        with pytest.raises(ProtocolError):
            adversary(
                ("write", "a", 0), ("read", "a", 1), ("read", "a", 2),
            ).check_lifecycle()

    def test_delete_before_read_rejected(self):
        with pytest.raises(ProtocolError):
            adversary(
                ("write", "a", 0), ("delete", "a", 1),
            ).check_lifecycle()


class TestAlphaMeasurement:
    def test_alpha_counts_rounds_strictly_between(self):
        assert alphas(adversary(("write", "a", 0), ("read", "a", 5))) == [4]

    def test_next_round_read_scores_zero(self):
        assert alphas(adversary(("write", "a", 3), ("read", "a", 4))) == [0]

    def test_unread_ids_counted(self):
        adv = adversary(
            ("write", "a", 0), ("write", "b", 0), ("read", "a", 1),
        )
        assert adv.unread_ids == 1
        assert adv.max_alpha == 0

    def test_multiple_ids(self):
        adv = adversary(
            ("write", "a", 0), ("write", "b", 1),
            ("read", "b", 2), ("read", "a", 9),
        )
        assert alphas(adv) == [0, 8]
        assert adv.max_alpha == 8

    def test_empty_trace(self):
        adv = Adversary()
        assert adv.max_alpha is None
        assert adv.alpha_histogram == Counter()


class TestBetaMeasurement:
    def test_beta_counts_round_gap(self):
        adv = adversary(
            ("write", "a1", 0), ("read", "a1", 2), ("write", "a2", 7),
            id_log={"a1": "k", "a2": "k"})
        assert betas(adv) == [5]

    def test_dummies_excluded(self):
        adv = adversary(
            ("write", "d1", 0), ("read", "d1", 1), ("write", "d2", 1),
            id_log={"d1": "\x00dummy:0", "d2": "\x00dummy:0"})
        assert betas(adv) == []

    def test_untracked_id_rejected(self):
        with pytest.raises(ProtocolError):
            Adversary({}).observe("read", "mystery", 0)

    def test_interleaved_keys(self):
        adv = adversary(
            ("write", "a1", 0), ("write", "b1", 0),
            ("read", "a1", 1), ("read", "b1", 3),
            ("write", "b2", 4), ("write", "a2", 9),
            id_log={"a1": "ka", "a2": "ka", "b1": "kb", "b2": "kb"})
        assert betas(adv) == [1, 8]


class TestReport:
    def test_satisfies_checks_both_bounds(self):
        adv = Adversary()
        adv.alpha_histogram.update([0, 3, 7])
        adv.beta_histogram.update([4, 9])
        assert adv.satisfies(alpha_bound=7, beta_bound=4)
        assert not adv.satisfies(alpha_bound=6, beta_bound=4)
        assert not adv.satisfies(alpha_bound=7, beta_bound=5)

    def test_satisfies_vacuous_when_empty(self):
        assert Adversary().satisfies(0, 10**9)

    def test_full_report_combines(self):
        adv = adversary(
            ("write", "a1", 0), ("read", "a1", 2), ("write", "a2", 5),
            id_log={"a1": "k", "a2": "k"})
        assert alphas(adv) == [1]
        assert betas(adv) == [3]
        assert adv.unread_ids == 1


class TestRoundInference:
    def test_infer_rounds_from_burst_structure(self):
        adv = Adversary(infer_rounds=True)
        entries = [
            ("write", "i1"), ("write", "i2"),        # init writes
            ("read", "a"), ("read", "b"),            # round 1 reads
            ("delete", "a"), ("delete", "b"),
            ("write", "c"), ("write", "d"),
            ("read", "c"),                           # round 2 reads
            ("delete", "c"), ("write", "e"),
        ]
        # Every access claims round 0; the instant is its position, so
        # the release instants are where the inferred rounds begin.
        for position, (op, sid) in enumerate(entries):
            adv.observe(op, sid, 0, at=position)
        assert adv.release_times == [0, 2, 8]
        assert alphas(adv) == [0]   # c: written in round 1, read in 2
        assert adv.round_load()["read_mean"] == 1.5

    def test_inferred_rounds_match_recorder_rounds(self):
        """Adversary-inferred rounds reproduce the proxy-marked rounds on
        a real Waffle trace, so alpha measurements agree."""
        import random
        from repro.core.batch import ClientRequest
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.workloads.trace import Operation
        from tests.conftest import make_items

        n = 150
        config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=50, c=20,
                              value_size=64, seed=51)
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(52))
        rng = random.Random(53)
        for _ in range(40):
            datastore.execute_batch([
                ClientRequest(op=Operation.READ,
                              key=f"user{rng.randrange(n):08d}")
                for _ in range(config.r)
            ])
        records = datastore.recorder.records
        marked = Adversary().feed(records)
        inferred = Adversary(infer_rounds=True).feed(records)
        assert marked.alpha_histogram == inferred.alpha_histogram
