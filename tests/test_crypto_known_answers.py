"""Known-answer pins for the deterministic crypto surface.

A deployed Waffle's storage ids are PRF outputs; if an implementation
change silently altered derivations, every outsourced object would
become unreachable on upgrade.  These pins make such a change an
explicit, reviewed decision instead of an accident.

The batched fast-path kernels (cached-HMAC PRF; AES-256-CTR AEAD whose
counter blocks numpy builds for a whole batch and one OpenSSL ECB call
encrypts) are additionally held byte-identical to the naive scalar forms
in :mod:`repro.testing.reference` — the equivalence that lets the proxy
swap kernels without the server ever noticing — and the AES-CTR
primitive itself, apart from the AEAD around it, to NIST's vector.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import AuthenticatedCipher, BatchCtr
from repro.crypto.keys import KeyChain
from repro.crypto.libcrypto import aes256_ctr
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


#: Plaintext shapes: empty, short, either side of two AES blocks, and
#: whole and ragged last blocks up to and past 1 KiB and 4 KiB.  In a
#: batch every value is zero-padded to the longest one's row of counter
#: blocks.
_SHAPE_VECTORS = [b"", b"x", b"short", b"a" * 31, b"b" * 32, b"c" * 33,
                  b"d" * 64, b"e" * 127, b"f" * 128, b"g" * 135, b"h" * 136,
                  b"i" * 137, b"j" * 1024, bytes(range(256)) * 5,
                  bytes(range(251)) * 4, bytes(range(256)) * 16,
                  bytes(range(241)) * 17]


class _FixedNonces:
    """A nonce source that hands out the given bytes, in order."""

    def __init__(self, pool: bytes) -> None:
        self._pool = pool

    def randbytes(self, n: int) -> bytes:
        out, self._pool = self._pool[:n], self._pool[n:]
        assert len(out) == n
        return out


class TestAesCtrKnownAnswers:
    """NIST SP 800-38A, F.5.5 CTR-AES256.Encrypt: the raw primitive under
    its raw key, apart from the AEAD's key hash, nonce draw and MAC."""

    KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d7781"
                        "1f352c073b6108d72d9810a30914dff4")
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAINTEXT = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"
                              "ae2d8a571e03ac9c9eb76fac45af8e51"
                              "30c81c46a35ce411e5fbc1191a0a52ef"
                              "f69f2445df4f9b17ad2b417be66c3710")
    CIPHERTEXT = bytes.fromhex("601ec313775789a5b7a7f504bbf3d228"
                               "f443e3ca4d62b59aca84e990cacaf5c5"
                               "2b0930daa23de94ce87017ba2d84988d"
                               "dfc9c58db67aada613c2dd08457941a6")

    def test_openssl_counter_mode(self):
        """The reference's primitive: OpenSSL's own CTR mode."""
        assert aes256_ctr(self.KEY, self.COUNTER, self.PLAINTEXT) == \
            self.CIPHERTEXT

    def test_batch_kernel(self):
        """The kernel's primitive: numpy counter blocks through one ECB
        call, alone and as the second row of a batch with a longer and a
        shorter neighbour."""
        ctr = BatchCtr(self.KEY)
        (alone,) = map(bytes, ctr.seal(self.COUNTER, [self.PLAINTEXT]))
        assert alone == self.CIPHERTEXT
        nonces = bytes(16) + self.COUNTER + b"\xff" * 16
        rows = list(map(bytes, ctr.seal(nonces,
                                        [bytes(100), self.PLAINTEXT, b"x"])))
        assert rows[1] == self.CIPHERTEXT
        assert [len(row) for row in rows] == [100, 64, 1]
        blobs = [nonce + row + bytes(32) for nonce, row in
                 zip((bytes(16), self.COUNTER, b"\xff" * 16), rows)]
        assert ctr.open(blobs)[1] == self.PLAINTEXT

    def test_counter_wraps_mod_2_128(self):
        """Block 1 after the all-ones counter is block 0 of counter 0."""
        zeros = bytes(48)
        wrapped = aes256_ctr(self.KEY, b"\xff" * 16, zeros)
        assert wrapped[16:] == aes256_ctr(self.KEY, bytes(16), zeros[16:])
        (kernel,) = map(bytes, BatchCtr(self.KEY).seal(b"\xff" * 16, [zeros]))
        assert kernel == wrapped


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

    @pytest.mark.parametrize("nonce", [
        bytes(8) + b"\xff" * 8,            # low word carries at block 1
        bytes(7) + b"\x01" + b"\xff" * 7 + b"\xfd",  # ... at block 3
        b"\xff" * 16,                      # wraps 2**128 at block 1
    ], ids=["low-word-carry", "late-carry", "all-ones-wrap"])
    def test_counter_carries_agree_with_openssl(self, nonce):
        """Counter blocks past a carry out of the low 64 bits, and past
        2**128, are numpy's arithmetic in the kernel and OpenSSL's own
        increment in the reference: they must agree, alone and in a
        batch whose other nonce carries nothing."""
        keys = {"enc_key": b"ka-enc-key", "mac_key": b"ka-mac-key"}
        plaintexts = [bytes(range(100)), b"tail"]
        other = bytes(range(16))
        batched = AuthenticatedCipher(rng=_FixedNonces(nonce + other), **keys)
        scalar = ScalarCipher(rng=_FixedNonces(nonce + other), **keys)
        blobs = batched.encrypt_many(plaintexts)
        assert blobs == scalar.encrypt_many(plaintexts)
        assert scalar.decrypt_many(blobs) == plaintexts
        alone = AuthenticatedCipher(rng=_FixedNonces(nonce), **keys)
        assert alone.encrypt(plaintexts[0]) == blobs[0]

    @given(st.permutations([0, 1, 15, 16, 17, 4095, 4097]),
           st.integers(0, 2**32))
    def test_mixed_length_batch_equals_looped_encrypt(self, lengths, seed):
        """One call over rows of 257 blocks, most of them padding: the
        same blobs as one call per value, and as the reference's."""
        keys = {"enc_key": b"ka-enc-key", "mac_key": b"ka-mac-key"}
        content = random.Random(seed)
        plaintexts = [content.randbytes(length) for length in lengths]
        looped = AuthenticatedCipher(rng=random.Random(seed), **keys)
        expected = [looped.encrypt(plaintext) for plaintext in plaintexts]
        batched = AuthenticatedCipher(rng=random.Random(seed), **keys)
        assert batched.encrypt_many(plaintexts) == expected
        scalar = ScalarCipher(rng=random.Random(seed), **keys)
        assert scalar.encrypt_many(plaintexts) == expected
        assert batched.decrypt_many(expected) == plaintexts

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
            "ac78c9053b"                        # body
            "855d721c580a5ff61d7529d6c039dc15"  # tag
            "965fd8f683604a127a5ea2036e35229c")
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

    def test_shake_era_blob_fails_closed(self):
        """The blob this file pinned while the keystream was SHAKE-256,
        same keys and nonce.  Its MAC absorbed the label
        ``repro.aead/shake256\\0``, so under today's label it must fail
        authentication rather than decrypt to garbage."""
        old_blob = bytes.fromhex(
            "cd072cd8be6f9f62ac4c09c28206e7e3"
            "7ef3268cd5"
            "c1ec544f4d0407f02fd946536c010a7e"
            "dc78fd79b2c59770ad43bfa4d7e79f5e")
        for kernel in (ScalarCipher, AuthenticatedCipher):
            cipher = kernel(enc_key=b"pin-enc", mac_key=b"pin-mac")
            with pytest.raises(IntegrityError):
                cipher.decrypt(old_blob)
        with pytest.raises(IntegrityError):
            AuthenticatedCipher(enc_key=b"pin-enc", mac_key=b"pin-mac"
                                ).decrypt_many([old_blob])
