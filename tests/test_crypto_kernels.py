"""The PRF / MAC / nonce kernels against their naive forms.

``repro.crypto`` runs HMAC-SHA256 on two plain SHA-256 states and draws a
batch's nonces in one call; both must be indistinguishable, byte for byte,
from :mod:`hmac` and from one 16-byte draw per object.
"""

import hashlib
import hmac
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.mac import hmac_sha256_states
from repro.crypto.prf import Prf

# Either side of SHA-256's 64-byte block, where RFC 2104 hashes the key.
_KEY_LENGTHS = [1, 32, 63, 64, 65, 200]


def _two_state_hmac(key, prefix, pieces):
    inner, outer = hmac_sha256_states(key, prefix)
    for piece in pieces:
        inner.update(piece)
    outer.update(inner.digest())
    return outer.digest()


class TestTwoStateHmac:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_KEY_LENGTHS).flatmap(
               lambda size: st.binary(min_size=size, max_size=size)),
           st.binary(max_size=80),
           st.lists(st.binary(max_size=200), min_size=1, max_size=3))
    def test_equals_hmac_for_any_key_prefix_and_split(self, key, prefix,
                                                      pieces):
        expected = hmac.new(key, prefix + b"".join(pieces),
                            hashlib.sha256).digest()
        assert _two_state_hmac(key, prefix, pieces) == expected

    def test_the_keyed_states_are_not_consumed(self):
        """Every message starts from a copy: the second MAC under one pair
        of states is as right as the first."""
        inner, outer = hmac_sha256_states(b"k" * 32, b"label\x00")
        for message in (b"first", b"second", b""):
            i, o = inner.copy(), outer.copy()
            i.update(message)
            o.update(i.digest())
            assert o.digest() == hmac.new(
                b"k" * 32, b"label\x00" + message, hashlib.sha256).digest()

    @pytest.mark.parametrize("size", _KEY_LENGTHS)
    def test_prf_equals_hmac_at_every_key_length(self, size):
        secret = b"\x5a" * size
        prf = Prf(secret)
        naive = hmac.new(secret, b"user7\x0042", hashlib.sha256)
        assert prf.derive("user7", 42) == naive.hexdigest()[:32]
        assert prf.derive_many([("user7", 42)] * 2) == \
            [naive.hexdigest()[:32]] * 2
        assert prf.derive_bytes(b"user7\x0042") == naive.digest()


class TestPickledKernelsRebuildTheirStates:
    def test_prf(self):
        prf = Prf(b"s" * 70)
        clone = pickle.loads(pickle.dumps(prf))
        pairs = [("a", 0), ("b", 10**9)]
        assert clone.derive_many(pairs) == prf.derive_many(pairs) == \
            [prf.derive(*pair) for pair in pairs]
        assert clone.derive_bytes(b"x") == prf.derive_bytes(b"x")

    def test_cipher(self):
        cipher = AuthenticatedCipher(b"e" * 32, b"m" * 70)
        clone = pickle.loads(pickle.dumps(cipher))
        assert clone.decrypt_many(cipher.encrypt_many([b"one", b""])) == \
            [b"one", b""]
        assert cipher.decrypt(clone.encrypt(b"two")) == b"two"


class TestOneNonceDrawPerBatch:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 250])
    def test_one_long_draw_is_the_short_draws_end_to_end(self, count):
        """What lets a batch draw once and stay pinned: ``randbytes`` takes
        whole 32-bit words, and 16 bytes are four of them."""
        one, many = random.Random(99), random.Random(99)
        assert one.randbytes(16 * count) == \
            b"".join(many.randbytes(16) for _ in range(count))
        assert one.getstate() == many.getstate()

    def test_a_batch_asks_its_source_once(self):
        class Counting:
            def __init__(self):
                self.asked = []
                self._rng = random.Random(5)

            def randbytes(self, n):
                self.asked.append(n)
                return self._rng.randbytes(n)

        source = Counting()
        cipher = AuthenticatedCipher(b"e" * 32, b"m" * 32, rng=source)
        plaintexts = [b"p%d" % i for i in range(7)]
        blobs = cipher.encrypt_many(iter(plaintexts))  # any iterable
        assert source.asked == [16 * 7]
        looped = AuthenticatedCipher(b"e" * 32, b"m" * 32,
                                     rng=random.Random(5))
        assert blobs == [looped.encrypt(p) for p in plaintexts]
        assert len({blob[:16] for blob in blobs}) == 7
