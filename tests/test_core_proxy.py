"""Tests for the Waffle proxy (Algorithm 1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore, pad_value
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, IntegrityError, ProtocolError
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.storage import PassthroughStore
from repro.workloads.trace import Operation
from tests.conftest import make_items


def read(key: str) -> ClientRequest:
    return ClientRequest(op=Operation.READ, key=key)


def write(key: str, value: bytes, value_size: int = 64) -> ClientRequest:
    """A write of ``value`` padded to ``value_size`` (``small_config``'s),
    the one length the proxy accepts."""
    return ClientRequest(op=Operation.WRITE, key=key,
                         value=pad_value(value, value_size))


def build_proxy(config: WaffleConfig, items=None, **kwargs):
    items = items if items is not None else make_items(config.n)
    recorder = RecordingStore(RedisSim(write_once=True))
    proxy = WaffleProxy(config, store=recorder,
                        keychain=KeyChain.from_seed(3), **kwargs)
    padded = {k: pad_value(v, config.value_size) for k, v in items.items()}
    proxy.initialize(padded)
    return proxy, recorder


class TestInitialization:
    def test_server_holds_uncached_reals_plus_dummies(self, small_config):
        proxy, recorder = build_proxy(small_config)
        cfg = small_config
        assert len(proxy.store) == cfg.n - cfg.c + cfg.d
        assert len(proxy.cache) == cfg.c

    def test_wrong_item_count_rejected(self, small_config):
        proxy = WaffleProxy(small_config, store=RedisSim(write_once=True))
        with pytest.raises(ConfigurationError):
            proxy.initialize({"k": b"v"})

    def test_double_initialize_rejected(self, small_config):
        proxy, _ = build_proxy(small_config)
        with pytest.raises(ProtocolError):
            proxy.initialize({})

    def test_dummy_prefix_keys_rejected(self, small_config):
        proxy = WaffleProxy(small_config, store=RedisSim(write_once=True))
        items = make_items(small_config.n - 1)
        items["\x00dummy:evil"] = b"x"
        with pytest.raises(ConfigurationError):
            proxy.initialize(items)

    def test_uninitialized_batch_rejected(self, small_config):
        proxy = WaffleProxy(small_config, store=RedisSim(write_once=True))
        with pytest.raises(ProtocolError):
            proxy.handle_batch([])

    def test_initialization_writes_recorded(self, small_config):
        _, recorder = build_proxy(small_config)
        writes = [r for r in recorder.records if r.op == "write"]
        assert len(writes) == small_config.n - small_config.c + small_config.d

    @pytest.mark.parametrize("config", [
        WaffleConfig(n=200, b=20, r=8, f_d=4, d=50, c=30, value_size=64,
                     seed=101),
        WaffleConfig(n=90, b=12, r=4, f_d=3, d=25, c=10, value_size=61,
                     seed=7, dummy_policy="round_robin"),
        # N - C + D = 820 objects: the load is sealed in several chunks.
        WaffleConfig(n=700, b=30, r=10, f_d=6, d=180, c=60, value_size=40,
                     seed=2024, fake_real_policy="uniform"),
    ], ids=["small", "value-size-61", "several-chunks"])
    def test_the_streamed_load_is_the_old_shuffle(self, config):
        """``initialize`` draws the load order before it seals anything.
        What the adversary sees in round 0 — and which real plaintext sits
        under which id — is what sealing everything and shuffling the
        finished pairs produced (the reference below is that code, as it
        stood in ``initialize``), and the rng is left where that left it:
        it still steps over the dummy payloads, draw for draw, though a
        dummy's server copy is noise that no key opens."""
        items = {key: pad_value(value, config.value_size)
                 for key, value in make_items(config.n).items()}
        keychain = KeyChain.from_seed(3)
        rng = random.Random(keychain.protocol_seed)
        rng.randrange(2**63)
        all_keys = list(items)
        rng.shuffle(all_keys)
        server_keys = all_keys[config.c:]
        dummy_keys = [f"\x00dummy:{i:012d}" for i in range(config.d)]
        load_keys = server_keys + dummy_keys
        values = [items[key] for key in server_keys]
        values.extend(rng.randbytes(config.value_size) for _ in dummy_keys)
        sids = keychain.prf.derive_many([(key, 0) for key in load_keys])
        outsourced = list(zip(sids, values, [False] * len(server_keys)
                              + [True] * len(dummy_keys)))
        rng.shuffle(outsourced)

        proxy, recorder = build_proxy(config)
        assert [(r.op, r.storage_id, r.round) for r in recorder.records] == \
            [("write", sid, 0) for sid, _, _ in outsourced]
        assert proxy._rng.getstate() == rng.getstate()
        cipher = proxy.keychain.cipher
        reals = [(sid, value) for sid, value, dummy in outsourced
                 if not dummy]
        assert cipher.decrypt_many(proxy.store.multi_get(
            [sid for sid, _ in reals])) == [value for _, value in reals]
        dummies = proxy.store.multi_get(
            [sid for sid, _, dummy in outsourced if dummy])
        assert len(dummies) == config.d
        for blob in dummies:
            assert len(blob) == config.value_size + cipher.ciphertext_overhead()
            with pytest.raises(IntegrityError):
                cipher.decrypt(blob)


class TestBatchShape:
    def test_every_round_reads_and_writes_exactly_b(self, small_config):
        proxy, _ = build_proxy(small_config)
        rng = random.Random(5)
        for _ in range(30):
            batch = [read(f"user{rng.randrange(small_config.n):08d}")
                     for _ in range(small_config.r)]
            proxy.handle_batch(batch)
            stats = proxy.last_stats
            assert stats.server_reads == small_config.b
            assert stats.server_writes == small_config.b
            assert stats.server_deletes == small_config.b
            assert (stats.unique_real_reads + stats.fake_real_reads
                    + stats.fake_dummy_reads) == small_config.b
            assert stats.fake_dummy_reads == small_config.f_d

    def test_cache_returns_to_capacity_each_round(self, small_config):
        proxy, _ = build_proxy(small_config)
        rng = random.Random(6)
        for _ in range(20):
            batch = [write(f"user{rng.randrange(small_config.n):08d}",
                           b"w") for _ in range(small_config.r)]
            proxy.handle_batch(batch)
            assert len(proxy.cache) == small_config.c
        assert proxy.totals.max_transient_cache <= (small_config.c
                                                    + small_config.r)

    def test_duplicate_requests_deduplicated(self, small_config):
        proxy, _ = build_proxy(small_config)
        # Pick a key that is not in the cache so it needs a server fetch.
        uncached = next(
            key for key in make_items(small_config.n) if key not in proxy.cache
        )
        batch = [read(uncached) for _ in range(small_config.r)]
        responses = proxy.handle_batch(batch)
        assert proxy.last_stats.unique_real_reads == 1
        assert len({resp.value for resp in responses}) == 1

    def test_oversized_batch_rejected(self, small_config):
        proxy, _ = build_proxy(small_config)
        batch = [read("user00000000")] * (small_config.r + 1)
        with pytest.raises(ProtocolError):
            proxy.handle_batch(batch)

    def test_unknown_key_rejected(self, small_config):
        proxy, _ = build_proxy(small_config)
        with pytest.raises(ProtocolError):
            proxy.handle_batch([read("stranger")])

    def test_repeated_request_id_rejected_before_the_round(self, small_config):
        """Responses are matched to requests by id, so two requests sharing
        one would be answered with each other's values (the WRITE below
        with the other key's value).  The batch is refused cleanly: no
        timestamp, no server access, no failure kept."""
        proxy, recorder = build_proxy(small_config)
        records = len(recorder.records)
        clash = [ClientRequest(op=Operation.WRITE, key="user00000001",
                               value=pad_value(b"NEW", 64), request_id=5),
                 ClientRequest(op=Operation.READ, key="user00000002",
                               request_id=5)]
        with pytest.raises(ProtocolError, match="repeats a request id"):
            proxy.handle_batch(clash)
        assert (proxy.ts, len(recorder.records)) == (0, records)
        assert proxy.failure is None
        responses = proxy.handle_batch(
            [write("user00000001", b"NEW"), read("user00000002")])
        assert [resp.value for resp in responses] == [
            pad_value(b"NEW", small_config.value_size),
            pad_value(b"value-2", small_config.value_size)]

    def test_a_write_of_the_wrong_length_is_refused_before_the_round(
            self, small_config):
        """Every outsourced value has one length (§3.1), so a write whose
        value is not ``value_size`` bytes — an unpadded one, one byte too
        long, an empty one — is refused cleanly: no timestamp, no server
        access, no failure kept and no queued mutation drained."""
        proxy, recorder = build_proxy(small_config)
        records = len(recorder.records)
        proxy.mutations.enqueue_delete("user00000003")
        size = small_config.value_size
        for value in (b"NEW", b"x" * (size + 1), b""):
            with pytest.raises(ProtocolError, match="not the padded"):
                proxy.handle_batch([
                    read("user00000002"),
                    ClientRequest(op=Operation.WRITE, key="user00000001",
                                  value=value)])
        assert (proxy.ts, len(recorder.records)) == (0, records)
        assert proxy.failure is None
        assert proxy.mutations.pending_deletes == 1
        responses = proxy.handle_batch([write("user00000001", b"NEW")])
        assert responses[0].value == pad_value(b"NEW", size)

    def test_partial_batch_allowed(self, small_config):
        proxy, _ = build_proxy(small_config)
        responses = proxy.handle_batch([read("user00000000")])
        assert len(responses) == 1
        assert proxy.last_stats.server_reads == small_config.b

    def test_empty_batch_still_runs_fakes(self, small_config):
        proxy, _ = build_proxy(small_config)
        assert proxy.handle_batch([]) == []
        stats = proxy.last_stats
        assert stats.server_reads == small_config.b
        assert stats.unique_real_reads == 0
        assert stats.fake_real_reads == small_config.b - small_config.f_d


class TestStorageInvariants:
    def test_ids_write_once_read_once(self, small_config):
        proxy, recorder = build_proxy(small_config)
        rng = random.Random(7)
        for _ in range(60):
            batch = []
            for _ in range(small_config.r):
                key = f"user{rng.randrange(small_config.n):08d}"
                if rng.random() < 0.5:
                    batch.append(read(key))
                else:
                    batch.append(write(key, b"w%d" % rng.randrange(999)))
            proxy.handle_batch(batch)
        Adversary().feed(recorder.records).check_lifecycle()

    def test_ids_never_reused_across_rounds(self, small_config):
        proxy, recorder = build_proxy(small_config)
        rng = random.Random(8)
        for _ in range(40):
            proxy.handle_batch([
                read(f"user{rng.randrange(small_config.n):08d}")
                for _ in range(small_config.r)
            ])
        reads = [r.storage_id for r in recorder.records if r.op == "read"]
        assert len(reads) == len(set(reads))

    def test_server_size_bounded(self, small_config):
        proxy, _ = build_proxy(small_config)
        rng = random.Random(9)
        for _ in range(40):
            proxy.handle_batch([
                read(f"user{rng.randrange(small_config.n):08d}")
                for _ in range(small_config.r)
            ])
            assert len(proxy.store) == (small_config.n - small_config.c
                                        + small_config.d)

    def test_prf_runs_once_per_object_write(self, small_config):
        """A round derives the B ids it writes; the B it reads are the
        ids remembered from when those objects were written."""
        proxy, recorder = build_proxy(small_config)
        prf, derived = proxy.keychain.prf, []

        class CountingPrf:
            def derive_many(self, pairs):
                out = prf.derive_many(pairs)
                derived.extend(out)
                return out

        proxy.keychain.prf = CountingPrf()
        rng = random.Random(10)
        for _ in range(20):
            proxy.handle_batch([
                write(f"user{rng.randrange(small_config.n):08d}", b"w")
                for _ in range(small_config.r)
            ])
        writes = [r.storage_id for r in recorder.records if r.op == "write"]
        assert derived == writes[-20 * small_config.b:]
        assert proxy.last_stats.prf_evals == 2 * small_config.b  # the paper's
        proxy.keychain.prf = prf
        proxy.check_invariants()

    def test_self_check_names_a_wrong_remembered_id(self, small_config):
        proxy, _ = build_proxy(small_config)
        rng = random.Random(11)
        for _ in range(5):
            proxy.handle_batch([
                read(f"user{rng.randrange(small_config.n):08d}")
                for _ in range(small_config.r)
            ])
        proxy.check_invariants()
        slot, ts = proxy._outsourced()[-1]  # a dummy
        ((name, _),) = proxy._prf_inputs([(slot, ts)])
        proxy._ids[slot] = bytes(16)
        with pytest.raises(ProtocolError,
                           match="remembered id is not prf") as raised:
            proxy.check_invariants()
        assert repr((name, ts)) in str(raised.value)


class TestLinearizability:
    def test_read_after_write_same_batch(self, small_config):
        proxy, _ = build_proxy(small_config)
        key = "user00000001"
        batch = [write(key, b"NEW"), read(key)]
        responses = proxy.handle_batch(batch)
        assert responses[1].value.startswith(b"\x00\x00\x00\x03NEW") or \
            b"NEW" in responses[1].value

    def test_read_before_write_same_batch_sees_old(self, small_config,
                                                   small_items):
        proxy, _ = build_proxy(small_config, items=small_items)
        key = next(k for k in small_items if k not in proxy.cache)
        batch = [read(key), write(key, b"NEW")]
        responses = proxy.handle_batch(batch)
        assert small_items[key] in responses[0].value
        follow_up = proxy.handle_batch([read(key)])
        assert b"NEW" in follow_up[0].value

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 60))
    def test_random_histories_match_reference(self, seed, rounds):
        """Any random interleaving of reads/writes matches a plain dict."""
        config = WaffleConfig(n=60, b=12, r=5, f_d=2, d=20, c=10,
                              value_size=64, seed=seed)
        items = make_items(60)
        datastore = WaffleDatastore(config, items,
                                    keychain=KeyChain.from_seed(seed))
        reference = dict(items)
        rng = random.Random(seed)
        for _ in range(min(rounds, 40)):
            batch, expected = [], []
            for _ in range(config.r):
                key = f"user{rng.randrange(60):08d}"
                if rng.random() < 0.5:
                    batch.append(ClientRequest(op=Operation.READ, key=key))
                    expected.append(reference[key])
                else:
                    value = b"w%d" % rng.randrange(10**6)
                    batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                               value=value))
                    reference[key] = value
                    expected.append(value)
            responses = datastore.execute_batch(batch)
            assert [resp.value for resp in responses] == expected


class TestSecurityBounds:
    def run_rounds(self, config, rounds, seed=11):
        proxy, recorder = build_proxy(config, log_ids=True)
        rng = random.Random(seed)
        for _ in range(rounds):
            proxy.handle_batch([
                read(f"user{rng.randrange(config.n):08d}")
                for _ in range(config.r)
            ])
        return proxy, recorder

    def test_alpha_beta_within_bounds_reshuffle(self):
        config = WaffleConfig(n=400, b=40, r=16, f_d=8, d=160, c=120,
                              value_size=64, seed=13)
        proxy, recorder = self.run_rounds(config, rounds=250)
        report = Adversary(proxy.id_log).feed(recorder.records)
        assert report.max_alpha <= config.alpha_bound_effective()
        assert report.min_beta >= config.beta_bound()

    def test_alpha_within_paper_bound_round_robin(self):
        config = WaffleConfig(n=400, b=40, r=16, f_d=8, d=160, c=120,
                              value_size=64, seed=13,
                              dummy_policy="round_robin")
        proxy, recorder = self.run_rounds(config, rounds=250)
        report = Adversary().feed(recorder.records)
        assert report.max_alpha <= config.alpha_bound()

    def test_uniform_fake_policy_violates_alpha(self):
        """The Challenge-2 ablation: random fake selection has no α bound."""
        base = dict(n=400, b=40, r=16, f_d=8, d=160, c=120,
                    value_size=64, seed=13)
        lra = WaffleConfig(**base)
        uniform = WaffleConfig(**base, fake_real_policy="uniform")
        _, rec_lra = self.run_rounds(lra, rounds=300)
        _, rec_uni = self.run_rounds(uniform, rounds=300)
        alpha_lra = Adversary().feed(rec_lra.records).max_alpha
        alpha_uni = Adversary().feed(rec_uni.records).max_alpha
        assert alpha_uni > alpha_lra

    def test_small_cache_rewrite_path(self):
        """C smaller than r + f_R: fetched objects are re-written
        immediately (§6.2) and every invariant still holds."""
        config = WaffleConfig(n=400, b=40, r=16, f_d=8, d=160, c=8,
                              value_size=64, seed=17)
        proxy, recorder = self.run_rounds(config, rounds=100)
        Adversary().feed(recorder.records).check_lifecycle()
        for stats in proxy.totals.stats_by_round:
            assert stats.server_reads == config.b
            assert stats.server_writes == config.b


class TestCacheBehaviour:
    def test_cache_hit_served_without_new_id(self, small_config):
        proxy, recorder = build_proxy(small_config)
        cached_key = next(key for key in make_items(small_config.n)
                          if key in proxy.cache)
        before = len(recorder.records)
        responses = proxy.handle_batch([read(cached_key)])
        assert len(responses) == 1
        assert proxy.last_stats.cache_hits == 1
        assert proxy.last_stats.unique_real_reads == 0
        # The round still performs B reads/writes (all fakes).
        assert len(recorder.records) - before == 3 * small_config.b

    def test_write_to_cached_key_stays_local(self, small_config):
        proxy, _ = build_proxy(small_config)
        cached_key = next(key for key in make_items(small_config.n)
                          if key in proxy.cache)
        proxy.handle_batch([write(cached_key, b"local")])
        assert proxy.last_stats.unique_real_reads == 0
        # The cache is keyed by slot; a read of the key is a cache hit.
        assert b"local" in proxy.handle_batch([read(cached_key)])[0].value
        assert proxy.last_stats.cache_hits == 1


class _CountingCipher:
    """Counts the objects the proxy's cipher decrypts (forwards the rest)."""

    def __init__(self, inner):
        self._inner = inner
        self.decrypted = 0

    def decrypt_many(self, blobs):
        out = self._inner.decrypt_many(blobs)
        self.decrypted += len(out)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _FlipOne(PassthroughStore):
    """Flips one byte of the first fetched blob whose id ``pick`` names."""

    def __init__(self, inner, pick):
        super().__init__(inner)
        self.pick = pick

    def multi_get(self, keys):
        blobs = list(self._inner.multi_get(keys))
        index = next(i for i, sid in enumerate(keys) if self.pick(sid))
        blobs[index] = blobs[index][:-1] + bytes([blobs[index][-1] ^ 1])
        return blobs


class TestTheAnswerDecryptsOnlyTheMisses:
    def test_the_rest_decrypt_after_the_answer(self, small_config):
        """At ``on_answer`` exactly the distinct missed keys are decrypted;
        the fake reals and forced delete reads decrypt after it, and every
        ``RoundStats`` (``decryptions`` included) and response equals a
        twin's run with no ``on_answer``."""
        proxy, _ = build_proxy(small_config)
        twin, _ = build_proxy(small_config)
        spy = proxy.keychain.cipher = _CountingCipher(proxy.keychain.cipher)
        rng = random.Random(5)
        keys = list(make_items(small_config.n))
        at_answer = []
        for round_ in range(12):
            if round_ % 4 == 1:  # a forced read: a server-resident key goes
                gone = next(key for key in keys if key not in proxy.cache)
                keys.remove(gone)
                for each in (proxy, twin):
                    each.mutations.enqueue_delete(gone)
            batch = [read(key) if rng.random() < 0.7 else write(key, b"w")
                     for key in rng.choices(keys, k=small_config.r)]
            missed = {request.key for request in batch
                      if request.key not in proxy.cache}
            before = spy.decrypted
            responses = proxy.handle_batch(batch, on_answer=lambda _: (
                at_answer.append(spy.decrypted - before)))
            assert at_answer[-1] == len(missed)
            assert spy.decrypted - before == proxy.last_stats.decryptions
            assert proxy.last_stats.decryptions > len(missed)
            assert responses == twin.handle_batch(batch)
        assert len(at_answer) == 12
        assert proxy.totals.stats_by_round == twin.totals.stats_by_round
        assert sum(stats.server_deletes for stats in
                   proxy.totals.stats_by_round) == 12 * small_config.b
        proxy.check_invariants()

    def _corrupted_round(self, config, pick):
        """One round whose read of the id ``pick(proxy, batch)`` chooses
        comes back with a flipped byte; returns the proxy, the batch, what
        ``on_answer`` got and what the round raised."""
        items = make_items(config.n)
        proxy, recorder = build_proxy(config, log_ids=True)
        batch = [read(key) for key in items if key not in proxy.cache][:4]
        proxy.store = _FlipOne(recorder, lambda sid: pick(proxy, batch, sid))
        answered = []
        with pytest.raises(IntegrityError) as raised:
            proxy.handle_batch(batch, on_answer=answered.append)
        return proxy, batch, answered, raised.value

    def test_a_tampered_unrequested_read_fails_after_the_answer(
            self, small_config):
        def fake_real(proxy, batch, sid):
            key = proxy.id_log[sid]
            return (proxy.contains_key(key)
                    and key not in {request.key for request in batch})

        proxy, batch, answered, error = self._corrupted_round(
            small_config, fake_real)
        values = {key: pad_value(value, small_config.value_size)
                  for key, value in make_items(small_config.n).items()}
        assert [[response.value for response in responses]
                for responses in answered] == [
            [values[request.key] for request in batch]]
        assert proxy.failure is error
        with pytest.raises(ProtocolError) as refused:
            proxy.handle_batch(batch)
        assert refused.value.__cause__ is error

    def test_a_tampered_requested_read_fails_before_any_answer(
            self, small_config):
        def requested(proxy, batch, sid):
            return proxy.id_log[sid] == batch[0].key

        proxy, _, answered, error = self._corrupted_round(
            small_config, requested)
        assert answered == []
        assert proxy.failure is error
