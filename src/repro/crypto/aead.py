"""Authenticated encryption built from the standard library.

An encrypt-then-MAC scheme over :mod:`hashlib` primitives — chosen over
a wheel-provided AEAD because importing one grows the serving process's
resident set past the benchmark's memory bound (ROADMAP, data-plane
item), so the speed has to come from what the interpreter already loads:

* confidentiality: a per-message random nonce seeds a SHAKE-256
  extendable-output keystream (``SHAKE256(enc_key || nonce)`` squeezed to
  the plaintext length) XOR-ed with the plaintext;
* integrity: HMAC-SHA256 under an independent MAC key over
  ``scheme label || nonce || ciphertext``; verification is constant-time
  and happens before any keystream is produced.

Blob layout is ``nonce(16) || body || tag(32)``.  This is the classical
encrypt-then-MAC composition and gives exactly the interface and
properties Waffle's proxy needs from ``E(v)`` (§3.1): randomized
ciphertexts (re-encrypting the same value yields a fresh ciphertext, so
written-back objects are unlinkable) and tamper detection.  Ciphertext
length depends only on plaintext length, matching the paper's
equal-length-values assumption.

Hot path: every batch round encrypts and decrypts ``~B`` values of
``value_size`` bytes, so each object costs a fixed handful of C calls
whatever its length:

* the whole keystream is one ``digest(length)`` squeeze of a SHAKE-256
  state that absorbed ``enc_key`` once per cipher (``.copy()`` +
  ``update(nonce)`` per message);
* the XOR is one numpy operation per object, in 64-bit lanes so that it
  does not hand the GIL to a serving frontend's event-loop thread — or,
  in a batch of short values, one big-int XOR of the whole batch, which
  leaves each ``nonce || body`` in place for a one-``update`` MAC;
* the MAC's two keyed SHA-256 states (:mod:`repro.crypto.mac`) — the
  inner one with the scheme label already absorbed — are precomputed once
  and ``.copy()``-ed per message;
* a batch draws its nonces in one call to the entropy source.

All are bit-compatible with :class:`repro.testing.reference.ScalarCipher`
(pinned by the known-answer tests).  The scheme label makes blobs sealed
by the earlier SHA256-CTR keystream fail authentication.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from itertools import accumulate
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.crypto.mac import hmac_sha256_states
from repro.errors import IntegrityError

__all__ = ["AuthenticatedCipher", "RandomSource"]


class RandomSource(Protocol):
    """Nonce entropy source: anything with ``random.Random``'s ``randbytes``."""

    def randbytes(self, n: int) -> bytes: ...

_NONCE_LEN = 16
_TAG_LEN = 32

#: Absorbed into the keyed MAC state ahead of every message: a blob
#: sealed under another keystream construction must not authenticate.
_SCHEME_LABEL = b"repro.aead/shake256\x00"

#: Big-int XOR wins below this length (numpy's fixed call overhead), the
#: vectorized byte XOR above it.  A batch of values all below it XORs as
#: one big-int slab, its nonces against zeros.
_NP_XOR_CUTOFF = 128
_SLAB_BLOB = _NONCE_LEN + _NP_XOR_CUTOFF + _TAG_LEN
_NO_STREAM = bytes(_NONCE_LEN)


def _xor_int(data: bytes, stream: bytes) -> bytes:
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings without a per-byte Python loop."""
    if len(data) >= _NP_XOR_CUTOFF:
        # 64-bit lanes where the length allows, for the sake of the
        # thread next door, not of speed: numpy drops the GIL around any
        # element-wise loop over more than 500 elements, which in byte
        # lanes is every value past 500 bytes.  Under repro.serve each
        # drop wakes the event-loop thread waiting for the GIL on another
        # CPU: 2B futile wake-ups a round, ~10k context switches a
        # second, for a microsecond of XOR.  In 64-bit lanes a value
        # under 4000 bytes stays below that count and the round thread
        # keeps the GIL until the interpreter's switch interval says
        # otherwise, as it does everywhere else in the round.
        lane = np.uint8 if len(data) & 7 else np.uint64
        return (np.frombuffer(data, dtype=lane)
                ^ np.frombuffer(stream, dtype=lane)).tobytes()
    return _xor_int(data, stream)


class AuthenticatedCipher:
    """Encrypt-then-MAC authenticated symmetric cipher.

    Parameters
    ----------
    enc_key:
        Key for the keystream.
    mac_key:
        Independent key for the HMAC tag.
    rng:
        Optional ``random.Random``-like object with ``randbytes``; supplied
        by tests for deterministic nonces.  Defaults to ``os.urandom``.
    """

    __slots__ = ("_enc_key", "_mac_key", "_randbytes", "_stream_root",
                 "_mac_inner", "_mac_outer")

    #: Name the wall-clock benchmark records for the implementation it
    #: measured; there is exactly one.
    backend_name = "pure"

    def __init__(self, enc_key: bytes, mac_key: bytes,
                 rng: RandomSource | None = None) -> None:
        if not enc_key or not mac_key:
            raise ValueError("cipher keys must be non-empty")
        if enc_key == mac_key:
            raise ValueError("encryption and MAC keys must be independent")
        self._enc_key = bytes(enc_key)
        self._mac_key = bytes(mac_key)
        self._randbytes = rng.randbytes if rng is not None else os.urandom
        self._init_states()

    def _init_states(self) -> None:
        # SHAKE-256 state with enc_key already absorbed; copied per message.
        self._stream_root = hashlib.shake_256(self._enc_key)
        # Keyed MAC states, the inner one holding the scheme label; copied
        # per message (skips re-keying, and the label costs nothing per
        # message).
        self._mac_inner, self._mac_outer = hmac_sha256_states(
            self._mac_key, _SCHEME_LABEL)

    def __getstate__(self) -> tuple[bytes, bytes, Callable[[int], bytes]]:
        # The cached digest states are C objects and cannot pickle; the
        # keys fully determine them (checkpoint shipping, ha/).
        return self._enc_key, self._mac_key, self._randbytes

    def __setstate__(self, state: tuple[bytes, bytes,
                                        Callable[[int], bytes]]) -> None:
        self._enc_key, self._mac_key, self._randbytes = state
        self._init_states()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        stream = self._stream_root.copy()
        stream.update(nonce)
        return stream.digest(length)

    def _tag(self, nonce: bytes, body: bytes) -> bytes:
        inner = self._mac_inner.copy()
        inner.update(nonce)
        inner.update(body)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def encrypt(self, plaintext: bytes) -> bytes:
        """Return ``nonce || ciphertext || tag`` for ``plaintext``."""
        return self.encrypt_many([plaintext])[0]

    def decrypt(self, blob: bytes) -> bytes:
        """Verify and decrypt ``blob``; raise :class:`IntegrityError` on tamper."""
        return self.decrypt_many([blob])[0]

    def encrypt_many(self, plaintexts: Iterable[bytes]) -> list[bytes]:
        """Batched :meth:`encrypt`; blob ``i`` encrypts ``plaintexts[i]``.

        The batch's nonces are one draw of ``16 * len(plaintexts)`` bytes,
        cut in input order.  ``random.Random.randbytes`` takes whole 32-bit
        words off its stream, so that one draw is the same bytes (and
        leaves the same generator state) as one 16-byte draw per object:
        under a deterministic rng the batch form is byte-identical to
        looping :meth:`encrypt`.
        """
        plaintexts = list(plaintexts)
        nonces = self._randbytes(_NONCE_LEN * len(plaintexts))
        cuts = range(0, len(nonces), _NONCE_LEN)
        if max(map(len, plaintexts), default=0) < _NP_XOR_CUTOFF:
            heads = self._xor_slab([nonces[start:start + _NONCE_LEN] + value
                                    for start, value in zip(cuts, plaintexts)])
            return [head + tag for head, tag in zip(heads, self._tags(heads))]
        keystream, tag = self._keystream, self._tag
        out = []
        append = out.append
        for start, plaintext in zip(cuts, plaintexts):
            nonce = nonces[start:start + _NONCE_LEN]
            body = _xor_bytes(plaintext, keystream(nonce, len(plaintext)))
            append(nonce + body + tag(nonce, body))
        return out

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Batched :meth:`decrypt`; raises on the first tampered blob."""
        compare = hmac.compare_digest
        if any(len(blob) < _NONCE_LEN + _TAG_LEN for blob in blobs):
            raise IntegrityError("ciphertext too short")
        if max(map(len, blobs), default=0) < _SLAB_BLOB:
            heads = [blob[:-_TAG_LEN] for blob in blobs]
            if not all(map(compare, [blob[-_TAG_LEN:] for blob in blobs],
                           self._tags(heads))):
                raise IntegrityError("authentication tag mismatch")
            return self._xor_slab(heads, skip=_NONCE_LEN)
        keystream, tag = self._keystream, self._tag
        out = []
        append = out.append
        for blob in blobs:
            nonce = blob[:_NONCE_LEN]
            body = blob[_NONCE_LEN:-_TAG_LEN]
            if not compare(blob[-_TAG_LEN:], tag(nonce, body)):
                raise IntegrityError("authentication tag mismatch")
            append(_xor_bytes(body, keystream(nonce, len(body))))
        return out

    # A batch of short values moves as a slab: every tag is made (or
    # checked) before any keystream, and _keystream's and _tag's steps are
    # inlined, as at 64 bytes a method call costs what the hashing does.
    def _tags(self, heads: list[bytes]) -> list[bytes]:
        """The MAC of each ``nonce || body``, in one ``update`` each."""
        inner_copy, outer_copy = self._mac_inner.copy, self._mac_outer.copy
        tags: list[bytes] = []
        append = tags.append
        for head in heads:
            inner = inner_copy()
            inner.update(head)
            outer = outer_copy()
            outer.update(inner.digest())
            append(outer.digest())
        return tags

    def _xor_slab(self, heads: list[bytes], skip: int = 0) -> list[bytes]:
        """Each ``nonce || data`` XOR ``0 || keystream(nonce)``, less its
        first ``skip`` bytes: one big-int XOR for the whole batch."""
        stream_copy = self._stream_root.copy
        streams: list[bytes] = []
        append = streams.append
        for head in heads:
            stream = stream_copy()
            stream.update(head[:_NONCE_LEN])
            append(_NO_STREAM)
            append(stream.digest(len(head) - _NONCE_LEN))
        slab = _xor_int(b"".join(heads), b"".join(streams))
        ends = list(accumulate(map(len, heads), initial=skip))
        return [slab[start:end - skip] for start, end in zip(ends, ends[1:])]

    def noise(self, count: int, length: int) -> list[bytes]:
        """``count`` blobs of ``length + ciphertext_overhead()`` random
        bytes, cut in order from one draw of the nonce entropy source.

        A ciphertext of a ``length``-byte value is a random nonce, a
        pseudorandom keystream XOR and a pseudorandom tag, so uniform
        bytes of its length are indistinguishable from it to anyone
        without the keys.  A holder of the keys who knows a blob is noise
        never opens it; one who tries gets :class:`IntegrityError`.
        """
        size = length + _NONCE_LEN + _TAG_LEN
        pool = self._randbytes(count * size)
        return [pool[start:start + size]
                for start in range(0, len(pool), size)]

    def ciphertext_overhead(self) -> int:
        """Bytes added to every plaintext (nonce + tag)."""
        return _NONCE_LEN + _TAG_LEN
