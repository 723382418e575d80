"""Unit and property tests for the authenticated cipher."""

import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto.aead import AuthenticatedCipher
from repro.errors import IntegrityError
from repro.testing.reference import ScalarCipher


@pytest.fixture
def cipher() -> AuthenticatedCipher:
    return AuthenticatedCipher(enc_key=b"enc-key-16byte!!", mac_key=b"mac-key-16byte!!")


class TestAeadBasics:
    def test_roundtrip(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"hello world")) == b"hello world"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_randomized_ciphertexts(self, cipher):
        # Re-encrypting a value must produce a fresh, unlinkable blob —
        # Waffle writes evicted objects back re-encrypted.
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_length_depends_only_on_plaintext_length(self, cipher):
        a = cipher.encrypt(b"a" * 100)
        b = cipher.encrypt(b"b" * 100)
        assert len(a) == len(b)
        assert len(a) == 100 + cipher.ciphertext_overhead()

    def test_tamper_detection_body(self, cipher):
        blob = bytearray(cipher.encrypt(b"sensitive"))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))

    def test_tamper_detection_tag(self, cipher):
        blob = bytearray(cipher.encrypt(b"sensitive"))
        blob[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))

    def test_truncated_blob_rejected(self, cipher):
        with pytest.raises(IntegrityError):
            cipher.decrypt(b"short")

    def test_equal_keys_rejected(self):
        with pytest.raises(ValueError):
            AuthenticatedCipher(enc_key=b"same", mac_key=b"same")

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            AuthenticatedCipher(enc_key=b"", mac_key=b"mac")

    def test_cross_cipher_rejection(self, cipher):
        other = AuthenticatedCipher(enc_key=b"other-enc", mac_key=b"other-mac")
        with pytest.raises(IntegrityError):
            other.decrypt(cipher.encrypt(b"data"))


class TestAeadBatched:
    def test_encrypt_many_empty_batch(self, cipher):
        assert cipher.encrypt_many([]) == []
        assert cipher.decrypt_many([]) == []

    def test_decrypt_many_rejects_short_blob(self, cipher):
        with pytest.raises(IntegrityError):
            cipher.decrypt_many([cipher.encrypt(b"ok"), b"short"])

    def test_decrypt_many_rejects_tampered_member(self, cipher):
        # A tampered member in the middle and at the end of a batch of
        # equal rows, and in batches whose rows are mostly padding.
        for lengths, member in (((64, 64, 64), 1), ((64, 64, 64), 2),
                                ((127, 128), 1), ((0, 64, 4096), 0)):
            blobs = cipher.encrypt_many([b"v" * n for n in lengths])
            blobs[member] = blobs[member][:-1] + bytes(
                [blobs[member][-1] ^ 0x01])
            with pytest.raises(IntegrityError):
                cipher.decrypt_many(blobs)


class TestNoise:
    """A dummy's server copy: random bytes of a ciphertext's length."""

    @pytest.mark.parametrize("count, length",
                             [(0, 64), (1, 0), (3, 61), (5, 4096)])
    def test_blobs_have_ciphertext_length(self, cipher, count, length):
        ciphertext = cipher.encrypt(bytes(length))
        assert [len(blob) for blob in cipher.noise(count, length)] == \
            [len(ciphertext)] * count

    @given(st.integers(0, 6), st.sampled_from([0, 1, 61, 64, 4096]),
           st.integers(0, 2**32))
    def test_one_draw_of_the_seeded_source(self, count, length, seed):
        """``count * size`` bytes in one draw, cut in order — the scalar
        reference cuts the same blobs and leaves its rng in the same state."""
        size = length + _seeded(0).ciphertext_overhead()
        rng = random.Random(seed)
        pool = rng.randbytes(count * size)
        expected = [pool[i * size:(i + 1) * size] for i in range(count)]
        fast_rng, scalar_rng = random.Random(seed), random.Random(seed)
        fast = AuthenticatedCipher(enc_key=b"e-enc", mac_key=b"e-mac",
                                   rng=fast_rng)
        scalar = ScalarCipher(enc_key=b"e-enc", mac_key=b"e-mac",
                              rng=scalar_rng)
        assert fast.noise(count, length) == expected
        assert scalar.noise(count, length) == expected
        assert fast_rng.getstate() == scalar_rng.getstate() == rng.getstate()

    @pytest.mark.parametrize("length", [0, 64, 127, 128, 4096])
    def test_blobs_fail_authentication(self, cipher, length):
        blobs = cipher.noise(4, length)
        for blob in blobs:
            with pytest.raises(IntegrityError):
                cipher.decrypt(blob)
        with pytest.raises(IntegrityError):
            cipher.decrypt_many(blobs)


class TestAeadProperties:
    @given(st.binary(max_size=4096))
    def test_roundtrip_any_bytes(self, plaintext):
        cipher = AuthenticatedCipher(enc_key=b"p-enc", mac_key=b"p-mac")
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    @given(st.lists(st.binary(max_size=4096), max_size=12))
    @example([b"\x01" * 127, b"\x02" * 128])
    @example([b"", b"\x03" * 64, b"\x04" * 4096])
    def test_batched_roundtrip_random_lengths(self, plaintexts):
        """decrypt_many(encrypt_many(xs)) == xs across lengths 0-4096."""
        cipher = AuthenticatedCipher(enc_key=b"b-enc", mac_key=b"b-mac")
        blobs = cipher.encrypt_many(plaintexts)
        assert cipher.decrypt_many(blobs) == plaintexts
        # Batch and single paths are mutually decryptable.
        for blob, plaintext in zip(blobs, plaintexts):
            assert cipher.decrypt(blob) == plaintext

    @given(st.binary(max_size=4096), st.integers(0, 10**9))
    @example(b"\x05" * 64, 10**9)  # the last member of a short-value batch
    @example(b"\x06" * 128, 3)  # eight whole blocks beside a short row
    def test_batched_tamper_detection(self, plaintext, seed):
        """A single flipped bit anywhere in any member fails the batch."""
        cipher = AuthenticatedCipher(enc_key=b"bt-enc", mac_key=b"bt-mac")
        blobs = cipher.encrypt_many([b"other", plaintext])
        tampered = bytearray(blobs[1])
        position = seed % len(tampered)
        tampered[position] ^= 1 << (seed // len(tampered)) % 8
        with pytest.raises(IntegrityError):
            cipher.decrypt_many([blobs[0], bytes(tampered)])

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 10**9))
    def test_single_bit_flip_always_detected(self, plaintext, seed):
        cipher = AuthenticatedCipher(enc_key=b"f-enc", mac_key=b"f-mac")
        blob = bytearray(cipher.encrypt(plaintext))
        position = seed % len(blob)
        bit = 1 << (seed // len(blob)) % 8
        blob[position] ^= bit
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))


#: Around the empty message, a 32-byte block and the 4 KiB object the
#: benchmark's crypto-bound workload moves.
_EDGE_LENGTHS = (0, 1, 31, 32, 33, 4095, 4096, 4097)

_edge_plaintexts = st.builds(
    lambda length, seed: random.Random(seed).randbytes(length),
    st.sampled_from(_EDGE_LENGTHS), st.integers(0, 2**32))


def _seeded(seed: int) -> AuthenticatedCipher:
    return AuthenticatedCipher(enc_key=b"e-enc", mac_key=b"e-mac",
                               rng=random.Random(seed))


class TestAeadEdgeLengths:
    @given(_edge_plaintexts)
    def test_roundtrip_and_fixed_overhead(self, plaintext):
        cipher = _seeded(1)
        blob = cipher.encrypt(plaintext)
        assert len(blob) == len(plaintext) + 48
        assert cipher.decrypt(blob) == plaintext
        assert cipher.decrypt_many([blob]) == [plaintext]

    @given(_edge_plaintexts, st.integers(0, 10**9), st.integers(1, 255))
    def test_any_flipped_byte_is_rejected(self, plaintext, where, mask):
        """Nonce, body and tag are all covered by the MAC."""
        cipher = _seeded(2)
        blob = bytearray(cipher.encrypt(plaintext))
        blob[where % len(blob)] ^= mask
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(blob))
        with pytest.raises(IntegrityError):
            cipher.decrypt_many([bytes(blob)])

    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    def test_each_region_is_authenticated(self, cipher, length):
        blob = cipher.encrypt(b"\xa5" * length)
        positions = [0, len(blob) - 1]  # nonce, tag
        if length:
            positions.append(16 + length // 2)  # body
        for position in positions:
            tampered = bytearray(blob)
            tampered[position] ^= 0x80
            with pytest.raises(IntegrityError):
                cipher.decrypt(bytes(tampered))

    @given(st.lists(_edge_plaintexts, max_size=6), st.integers(0, 2**32))
    @example([b"\x01" * 127, b"\x02" * 128], 7)  # ragged and whole rows
    @example([b"", b"\x03" * 64, b"\x04" * 4096], 8)  # padded rows
    @example([b"\x05" * 64] * 3, 9)  # equal rows, no padding
    def test_batch_forms_equal_looped_encrypt(self, plaintexts, seed):
        """Same rng stream in, same blobs out: nonces are drawn 16 bytes
        at a time in input order by both entry points."""
        looped = _seeded(seed)
        expected = [looped.encrypt(plaintext) for plaintext in plaintexts]
        assert _seeded(seed).encrypt_many(plaintexts) == expected
        assert _seeded(seed).decrypt_many(expected) == plaintexts

    @given(_edge_plaintexts, st.integers(0, 2**32))
    def test_pickle_round_trip_keeps_rng_stream(self, plaintext, seed):
        """A restored cipher (HA checkpoint) continues the nonce stream
        exactly where the original stood and opens the original's blobs."""
        original = _seeded(seed)
        first = original.encrypt(plaintext)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.decrypt(first) == plaintext
        assert clone.encrypt(plaintext) == original.encrypt(plaintext)
