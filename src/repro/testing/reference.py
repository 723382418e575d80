"""Scalar reference kernels: the one-call-at-a-time PRF and AEAD.

:class:`ScalarPrf` and :class:`ScalarCipher` are the naive forms of the
scheme (fresh ``hmac.new`` per derivation, one-shot
``shake_256(enc_key + nonce)`` keystream, per-byte generator XOR, no
cached digest states).  They are bit-compatible with the optimized
kernels in
:mod:`repro.crypto` and expose the same ``derive_many`` /
``encrypt_many`` / ``decrypt_many`` / ``noise`` surface, so an unmodified
:class:`~repro.core.proxy.WaffleProxy` runs on either — which makes them
the equivalence oracle the fast path is held against
(``tests/test_crypto_known_answers.py``, ``tests/test_trace_pin.py``).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
from typing import Iterable, Sequence

from repro.crypto.keys import KeyChain
from repro.errors import IntegrityError

__all__ = ["ScalarCipher", "ScalarPrf", "scalar_keychain"]

_NONCE_LEN = 16
_TAG_LEN = 32
_DIGEST_HEX_LEN = 32
_SCHEME_LABEL = b"repro.aead/shake256\x00"


class ScalarPrf:
    """The original per-call PRF: a fresh ``hmac.new`` every derivation.

    Bit-compatible with :class:`repro.crypto.prf.Prf`.
    """

    __slots__ = ("_secret",)

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise ValueError("PRF secret must be non-empty")
        self._secret = bytes(secret)

    def derive(self, key: str, timestamp: int) -> str:
        message = key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode()
        digest = hmac.new(self._secret, message, hashlib.sha256).hexdigest()
        return digest[:_DIGEST_HEX_LEN]

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        return [self.derive(key, timestamp) for key, timestamp in pairs]

    def derive_bytes(self, data: bytes) -> bytes:
        return hmac.new(self._secret, data, hashlib.sha256).digest()


class ScalarCipher:
    """The naive AEAD: ``shake_256(key||nonce)`` squeezed to the message
    length, per-byte generator XOR, fresh ``hmac.new`` over
    ``label||nonce||body``.  Bit-compatible with
    :class:`repro.crypto.aead.AuthenticatedCipher`."""

    __slots__ = ("_enc_key", "_mac_key", "_randbytes")

    def __init__(self, enc_key: bytes, mac_key: bytes,
                 rng: random.Random | None = None) -> None:
        if not enc_key or not mac_key:
            raise ValueError("cipher keys must be non-empty")
        if enc_key == mac_key:
            raise ValueError("encryption and MAC keys must be independent")
        self._enc_key = bytes(enc_key)
        self._mac_key = bytes(mac_key)
        self._randbytes = rng.randbytes if rng is not None else os.urandom

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _tag(self, nonce: bytes, body: bytes) -> bytes:
        return hmac.new(self._mac_key, _SCHEME_LABEL + nonce + body,
                        hashlib.sha256).digest()

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._randbytes(_NONCE_LEN)
        stream = self._keystream(nonce, len(plaintext))
        body = bytes(p ^ s for p, s in zip(plaintext, stream))
        return nonce + body + self._tag(nonce, body)

    def decrypt(self, blob: bytes) -> bytes:
        if len(blob) < _NONCE_LEN + _TAG_LEN:
            raise IntegrityError("ciphertext too short")
        nonce = blob[:_NONCE_LEN]
        body = blob[_NONCE_LEN:-_TAG_LEN]
        tag = blob[-_TAG_LEN:]
        if not hmac.compare_digest(tag, self._tag(nonce, body)):
            raise IntegrityError("authentication tag mismatch")
        stream = self._keystream(nonce, len(body))
        return bytes(c ^ s for c, s in zip(body, stream))

    def encrypt_many(self, plaintexts: Iterable[bytes]) -> list[bytes]:
        return [self.encrypt(plaintext) for plaintext in plaintexts]

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        return [self.decrypt(blob) for blob in blobs]

    def noise(self, count: int, length: int) -> list[bytes]:
        size = length + _NONCE_LEN + _TAG_LEN
        pool = self._randbytes(count * size)
        return [pool[i * size:(i + 1) * size] for i in range(count)]

    def ciphertext_overhead(self) -> int:
        return _NONCE_LEN + _TAG_LEN


def scalar_keychain(seed: int, rng: random.Random | None = None) -> KeyChain:
    """A :class:`KeyChain` whose kernels are the scalar references.

    Key material is identical to ``KeyChain.from_seed(seed)`` — only the
    kernel implementations differ — so the two chains produce identical
    storage ids and mutually decryptable ciphertexts.
    """
    chain = KeyChain.from_seed(seed, rng=rng)
    chain.prf = ScalarPrf(chain.prf._secret)
    chain.cipher = ScalarCipher(
        enc_key=chain.cipher._enc_key,
        mac_key=chain.cipher._mac_key,
        rng=rng,
    )
    return chain
