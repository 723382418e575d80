"""Known-answer pins for the deterministic crypto surface.

A deployed Waffle's storage ids are PRF outputs; if an implementation
change silently altered derivations, every outsourced object would
become unreachable on upgrade.  These pins make such a change an
explicit, reviewed decision instead of an accident.

The batched fast-path kernels (cached-HMAC PRF, one-squeeze SHAKE-256
AEAD) are additionally held byte-identical to the naive scalar forms in
:mod:`repro.testing.reference` — the equivalence that lets the proxy
swap kernels without the server ever noticing.
"""

import random

import pytest

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf
from repro.errors import IntegrityError
from repro.testing.reference import ScalarCipher, ScalarPrf


class TestPrfKnownAnswers:
    def test_fixed_secret_fixed_outputs(self):
        prf = Prf(b"known-answer-secret")
        assert prf.derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"
        assert prf.derive("user00000001", 12345) == \
            "b1956db0690058fe907518f49165bf3a"

    def test_keychain_derivation_stable(self):
        chain = KeyChain.from_seed(42)
        assert chain.prf.derive("k", 7) == \
            "2aafb921b688174b8980ee288bb9fd3f"

    def test_ciphertext_layout_stable(self):
        """Nonce(16) + body + tag(32): layout changes break stored data."""
        chain = KeyChain.from_seed(42)
        blob = chain.cipher.encrypt(b"fixed")
        assert len(blob) == 16 + 5 + 32
        assert chain.cipher.ciphertext_overhead() == 48

    def test_decryption_of_archived_ciphertext(self):
        """A ciphertext produced by one chain instance decrypts under a
        freshly constructed chain with the same seed (cross-process
        durability of outsourced values)."""
        blob = KeyChain.from_seed(777).cipher.encrypt(b"archived-value")
        fresh = KeyChain.from_seed(777)
        assert fresh.cipher.decrypt(blob) == b"archived-value"


#: Plaintext shapes around the XOR-path cutoff and the SHAKE-256 rate
#: (136 bytes): empty, short, either side of both, and ragged tails.
#: Lengths that are a multiple of 8 XOR in 64-bit lanes, the rest in
#: byte lanes; both appear on either side of 1 KiB and 4 KiB.
_SHAPE_VECTORS = [b"", b"x", b"short", b"a" * 31, b"b" * 32, b"c" * 33,
                  b"d" * 64, b"e" * 127, b"f" * 128, b"g" * 135, b"h" * 136,
                  b"i" * 137, b"j" * 1024, bytes(range(256)) * 5,
                  bytes(range(251)) * 4, bytes(range(256)) * 16,
                  bytes(range(241)) * 17]


class TestScalarBatchedEquivalence:
    """Optimized kernels vs the naive scalar forms, byte for byte."""

    def test_prf_paths_agree_on_fixed_vectors(self):
        secret = b"known-answer-secret"
        scalar, batched = ScalarPrf(secret), Prf(secret)
        pairs = [("user00000001", 0), ("user00000001", 12345), ("k", 7),
                 ("", 0), ("key-with-\x00-byte", 2**31)]
        for key, ts in pairs:
            assert scalar.derive(key, ts) == batched.derive(key, ts)
        assert batched.derive_many(pairs) == [
            batched.derive(key, ts) for key, ts in pairs]
        assert scalar.derive_many(pairs) == batched.derive_many(pairs)
        # Raw-bytes subkey derivation is pinned too (keychain depends on it).
        assert scalar.derive_bytes(b"label") == batched.derive_bytes(b"label")

    def test_prf_pins_unchanged_by_fast_path(self):
        assert Prf(b"known-answer-secret").derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"
        assert ScalarPrf(b"known-answer-secret").derive("user00000001", 0) == \
            "15837b7ce3ddd5e6b367bd71710e10c0"

    def test_aead_paths_agree_across_shapes(self):
        """With synchronized nonce rngs the two implementations produce
        identical blobs for empty, ragged and block-aligned plaintexts,
        and each decrypts the other's output."""
        keys = {"enc_key": b"ka-enc-key", "mac_key": b"ka-mac-key"}
        scalar = ScalarCipher(rng=random.Random(42), **keys)
        batched = AuthenticatedCipher(rng=random.Random(42), **keys)
        for plaintext in _SHAPE_VECTORS:
            blob_scalar = scalar.encrypt(plaintext)
            blob_batched = batched.encrypt(plaintext)
            assert blob_scalar == blob_batched
            assert scalar.decrypt(blob_batched) == plaintext
            assert batched.decrypt(blob_scalar) == plaintext

    def test_aead_many_equals_looped_single(self):
        keys = {"enc_key": b"ka-enc-key", "mac_key": b"ka-mac-key"}
        looped = AuthenticatedCipher(rng=random.Random(7), **keys)
        many = AuthenticatedCipher(rng=random.Random(7), **keys)
        expected = [looped.encrypt(plaintext) for plaintext in _SHAPE_VECTORS]
        blobs = many.encrypt_many(_SHAPE_VECTORS)
        assert blobs == expected
        assert many.decrypt_many(blobs) == _SHAPE_VECTORS

    def test_aead_ciphertext_pin(self):
        """Full ciphertext bytes under a fixed nonce rng: any keystream,
        XOR or MAC change breaks decryption of already-stored data.
        The literal was produced by :class:`ScalarCipher`."""
        pin = (
            "cd072cd8be6f9f62ac4c09c28206e7e3"  # nonce (random.Random(0))
            "7ef3268cd5"                        # body
            "c1ec544f4d0407f02fd946536c010a7e"  # tag
            "dc78fd79b2c59770ad43bfa4d7e79f5e")
        for kernel in (ScalarCipher, AuthenticatedCipher):
            cipher = kernel(enc_key=b"pin-enc", mac_key=b"pin-mac",
                            rng=random.Random(0))
            assert cipher.encrypt(b"fixed").hex() == pin
            assert cipher.decrypt(bytes.fromhex(pin)) == b"fixed"

    def test_sha256_ctr_era_blob_fails_closed(self):
        """The blob this file pinned while the keystream was SHA256-CTR,
        same keys.  Its HMAC covered ``nonce || body`` with no scheme
        label, so it must fail authentication — never verify and decrypt
        to garbage under keys restored from an old snapshot."""
        old_blob = bytes.fromhex(
            "cd072cd8be6f9f62ac4c09c28206e7e3"
            "346852021f"
            "e784245ca0437d0f7183cbcc6a3d47d8"
            "9cdfb81bc88c2cd6bed2d1eed541a7e0")
        for kernel in (ScalarCipher, AuthenticatedCipher):
            cipher = kernel(enc_key=b"pin-enc", mac_key=b"pin-mac")
            with pytest.raises(IntegrityError):
                cipher.decrypt(old_blob)
        with pytest.raises(IntegrityError):
            AuthenticatedCipher(enc_key=b"pin-enc", mac_key=b"pin-mac"
                                ).decrypt_many([old_blob])
