"""The adversary's windowed α against a budget (§8.4's live monitor)."""

import pytest

from repro.analysis import Adversary
from repro.errors import ConfigurationError


def write(adv: Adversary, sid: str, round_index: int) -> None:
    adv.observe("write", sid, round_index)


def read(adv: Adversary, sid: str, round_index: int) -> None:
    adv.observe("read", sid, round_index)


class TestAlphaMonitor:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Adversary(alpha_budget=-1)
        with pytest.raises(ConfigurationError):
            Adversary(alpha_budget=5, window_rounds=0)

    def test_alpha_computed_per_id(self):
        adv = Adversary(alpha_budget=10, window_rounds=100)
        write(adv, "a", 3)
        read(adv, "a", 7)
        assert adv.alpha_histogram == {3: 1}

    def test_unknown_read_ignored(self):
        adv = Adversary(alpha_budget=10)
        read(adv, "ghost", 1)
        assert not adv.alpha_histogram

    def test_windows_close_and_report(self):
        adv = Adversary(alpha_budget=10, window_rounds=10)
        write(adv, "a", 1)
        read(adv, "a", 4)      # alpha 2
        write(adv, "b", 12)    # forces window [0..9] closed
        windows = adv.windows
        assert len(windows) == 1
        assert windows[0].max_alpha == 2
        assert windows[0].samples == 1
        assert not windows[0].budget_breached

    def test_budget_breach_on_large_alpha(self):
        adv = Adversary(alpha_budget=3, window_rounds=10)
        write(adv, "a", 0)
        read(adv, "a", 9)      # alpha 8 > 3
        write(adv, "x", 20)
        assert adv.breaches >= 1
        assert adv.windows[0].budget_breached

    def test_breach_on_aging_outstanding_id(self):
        """An id written but never read past the budget is a breach even
        though no alpha sample exists (the low-security failure mode)."""
        adv = Adversary(alpha_budget=5, window_rounds=10)
        write(adv, "stuck", 0)
        write(adv, "x", 25)    # closes windows; 'stuck' ages
        assert any(w.budget_breached and w.oldest_outstanding_age > 5
                   for w in adv.windows)

    def test_rounds_must_be_monotone(self):
        adv = Adversary(alpha_budget=5)
        write(adv, "a", 10)
        with pytest.raises(ConfigurationError):
            write(adv, "b", 5)

    def test_report_emitted_exactly_at_window_end_round(self):
        """The window [0..window_rounds-1] closes on the first access at
        round window_rounds, not one round early or late."""
        adv = Adversary(alpha_budget=10, window_rounds=10)
        write(adv, "a", 0)
        write(adv, "b", 9)     # last round inside the window
        assert adv.windows == []
        read(adv, "b", 10)     # first access past the boundary
        windows = adv.windows
        assert len(windows) == 1
        assert windows[0].window_start_round == 0
        assert windows[0].window_end_round == 9
        # The read at round 10 belongs to the *next* window.
        assert windows[0].samples == 0

    def test_breach_latches_across_windows(self):
        """breaches accumulates; clean later windows never reset an
        earlier window's breach."""
        adv = Adversary(alpha_budget=2, window_rounds=5)
        write(adv, "a", 0)
        read(adv, "a", 4)      # alpha 3 > 2: breach in window 0
        write(adv, "b", 5)
        read(adv, "b", 7)      # alpha 1: clean window 1
        write(adv, "c", 20)    # closes windows 1-3
        windows = adv.windows
        assert windows[0].budget_breached
        assert any(not w.budget_breached for w in windows[1:])
        assert adv.breaches == sum(1 for w in windows if w.budget_breached)
        assert adv.breaches >= 1

    def test_outstanding_aging_under_interleaved_writes(self):
        """A never-read id keeps aging across windows even while fresh
        write/read pairs churn through, and flips the breach flag once
        its age exceeds the budget."""
        adv = Adversary(alpha_budget=4, window_rounds=5)
        write(adv, "old", 0)
        for r in range(1, 15):
            write(adv, f"w{r}", r)
            if r >= 2:
                read(adv, f"w{r - 1}", r)   # alpha 0 each
        # Window [0..4] closes with 'old' aged exactly 4: no breach yet.
        first = adv.windows[0]
        assert first.oldest_outstanding_age == 4
        assert not first.budget_breached
        aged = [w for w in adv.windows if w.oldest_outstanding_age > 4]
        assert aged and all(w.budget_breached for w in aged)
        assert adv.unread_ids >= 1  # 'old' never read

    def test_attached_monitor_matches_offline_alpha(self):
        """An adversary fed live from the tracing stream reads the same
        alpha samples as one replaying the recorded trace."""
        import random
        from repro import obs
        from repro.core.batch import ClientRequest
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.workloads.trace import Operation
        from tests.conftest import make_items

        n = 120
        config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=40, c=16,
                              value_size=64, seed=21)
        with obs.capture() as handle:
            live = Adversary(alpha_budget=10**6, window_rounds=10)
            # Attached before the datastore exists so the live stream
            # includes initialization writes, like the offline records.
            live.attach(handle.tracer)
            datastore = WaffleDatastore(config, make_items(n),
                                        keychain=KeyChain.from_seed(22))
            rng = random.Random(23)
            for _ in range(40):
                datastore.execute_batch([
                    ClientRequest(op=Operation.READ,
                                  key=f"user{rng.randrange(n):08d}")
                    for _ in range(config.r)
                ])
        offline = Adversary().feed(datastore.recorder.records)
        assert live.alpha_histogram == offline.alpha_histogram
        assert live.unread_ids == offline.unread_ids
        assert live.violation is None
        # One release instant per round: the load and 40 batches.
        assert len(live.release_times) == 41

    def test_feed_records_matches_offline_measurement(self):
        """The windows agree with the whole-trace α."""
        import random
        from repro.core.batch import ClientRequest
        from repro.core.config import WaffleConfig
        from repro.core.datastore import WaffleDatastore
        from repro.crypto.keys import KeyChain
        from repro.workloads.trace import Operation
        from tests.conftest import make_items

        n = 150
        config = WaffleConfig(n=n, b=16, r=6, f_d=4, d=50, c=20,
                              value_size=64, seed=41)
        datastore = WaffleDatastore(config, make_items(n),
                                    keychain=KeyChain.from_seed(42))
        rng = random.Random(43)
        for _ in range(80):
            datastore.execute_batch([
                ClientRequest(op=Operation.READ,
                              key=f"user{rng.randrange(n):08d}")
                for _ in range(config.r)
            ])
        adv = Adversary(alpha_budget=config.alpha_bound_effective(),
                        window_rounds=20)
        adv.feed(datastore.recorder.records)
        windowed_max = max((w.max_alpha for w in adv.windows
                            if w.max_alpha is not None), default=None)
        # The windows cover every closed window; the whole-trace max also
        # sees the final partial window, so the windowed max is a lower
        # bound of it.
        assert windowed_max is not None
        assert windowed_max <= adv.max_alpha
        assert adv.breaches == 0
        assert sum(w.samples for w in adv.windows) \
            <= sum(adv.alpha_histogram.values())
