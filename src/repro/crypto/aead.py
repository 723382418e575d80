"""Authenticated encryption: AES-256-CTR, then HMAC-SHA256.

An encrypt-then-MAC scheme on the OpenSSL that :mod:`hashlib` already
loads (:mod:`repro.crypto.libcrypto`) — chosen over a wheel-provided
AEAD because importing one grows the serving process's resident set past
the benchmark's memory bound (DESIGN §6), so the speed has to come from
what the interpreter already loads:

* confidentiality: AES-256 in counter mode (NIST SP 800-38A) under a key
  hashed once per cipher from ``enc_key``; a blob's random 16-byte nonce
  is its initial counter block, and block ``j`` of the body is XOR-ed
  with ``AES(key, nonce + j mod 2**128)``;
* integrity: HMAC-SHA256 under an independent MAC key over
  ``scheme label || nonce || ciphertext``; verification is constant-time
  and happens before any keystream is made.

Blob layout is ``nonce(16) || body || tag(32)``.  This is the classical
encrypt-then-MAC composition and gives exactly the interface and
properties Waffle's proxy needs from ``E(v)`` (§3.1): randomized
ciphertexts (re-encrypting the same value yields a fresh ciphertext, so
written-back objects are unlinkable) and tamper detection.  Ciphertext
length depends only on plaintext length, matching the paper's
equal-length-values assumption.

Hot path: every batch round encrypts and decrypts ``~B`` values of
``value_size`` bytes, so the keystream is made for many values at once
(:class:`BatchCtr`):

* numpy writes the counter blocks of a slice of the batch — every value
  of a batch of small values, 64 KiB of keystream's worth of large ones
  — into the cipher's work buffer, a row of ``ceil(longest / 16)``
  blocks a value;
* one ``EVP_EncryptUpdate`` in AES-256-ECB turns them, in place, into
  the slice's keystream (one context a cipher, key schedule made once);
* one numpy XOR adds the slice's inputs, joined and each zero-padded to
  its row, into the same buffer in place;
* the buffer is made with the cipher and kept, so its size, not the
  batch's, is what the keystream adds to the process's memory, and a
  round writes into pages already mapped;
* per value there remain the MAC's two keyed SHA-256 states
  (:mod:`repro.crypto.mac`), the inner one with the scheme label already
  absorbed, ``.copy()``-ed and fed;
* a batch draws its nonces in one call to the entropy source.

All are bit-compatible with :class:`repro.testing.reference.ScalarCipher`,
whose OpenSSL counter mode runs one context a value (pinned by the
known-answer tests).  The scheme label makes blobs sealed by the earlier
SHA256-CTR and SHAKE-256 keystreams fail authentication.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from itertools import count
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Protocol,
                    Sequence)

import numpy as np

from repro.crypto.libcrypto import AesEcb
from repro.crypto.mac import hmac_sha256_states
from repro.errors import IntegrityError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["AuthenticatedCipher", "RandomSource"]


class RandomSource(Protocol):
    """Nonce entropy source: anything with ``random.Random``'s ``randbytes``."""

    def randbytes(self, n: int) -> bytes: ...

_NONCE_LEN = 16
_TAG_LEN = 32
_OVERHEAD = _NONCE_LEN + _TAG_LEN
_BLOCK = 16
#: Bytes of keystream one AES call makes at most, and so the size of a
#: cipher's work buffer: a batch of more is sealed or opened a slice of
#: whole values at a time.
_SLICE = 64 * 1024
#: A counter block is two of these: high and low word, most significant
#: byte first.
_WORD = np.dtype(">u8")

#: Absorbed into the keyed MAC state ahead of every message: a blob
#: sealed under another keystream construction must not authenticate.
_SCHEME_LABEL = b"repro.aead/aes256-ctr\x00"

#: Hashed with ``enc_key`` into the AES key, so a key of any length works.
_KEY_LABEL = b"repro.aead/aes256-ctr/key\x00"


class _Layout:
    """Views of the work buffer as ``rows`` rows of ``blocks`` counter
    blocks, one row a body: a slice of up to ``rows`` bodies of at most
    ``16 * blocks`` bytes is sliced out of them."""

    __slots__ = ("blocks", "stride", "rows", "counters", "high", "low",
                 "steps", "keystream", "outputs")

    def __init__(self, buffer: bytearray, blocks: int) -> None:
        stride = blocks * _BLOCK
        rows = len(buffer) // stride
        self.blocks, self.stride, self.rows = blocks, stride, rows
        self.counters = np.ndarray((rows, blocks), f"V{_BLOCK}", buffer)
        words = np.ndarray((rows, blocks, 2), _WORD, buffer)
        self.high, self.low = words[:, :, 0], words[:, :, 1]
        # What counter block ``j`` adds to the nonce's low word.
        self.steps = np.arange(blocks, dtype=np.uint64)
        self.keystream = np.ndarray((rows, stride // 8), np.uint64, buffer)
        self.outputs = np.ndarray((rows,), f"V{stride}", buffer)


class BatchCtr:
    """AES-256-CTR over a batch: one ECB call makes a slice's keystream.

    Row ``i``'s counter blocks are ``nonce_i + j mod 2**128`` for ``j``
    below the longest body's block count, big-endian, written by two
    numpy passes (the nonce into every block, then ``j`` onto the low
    words), then a carry into the high word only where a low word
    wrapped.  The inputs are joined, each zero-padded to a whole row,
    and one XOR adds their bodies to the keystream in place.  One caller
    at a time, from a call to its last read of what it returned.

    A slice is as many whole values as ``_SLICE`` bytes hold (at least
    one), so a batch of small values is one AES call and the work buffer
    is ``_SLICE`` bytes whatever the batch: it is made with the cipher
    and kept, and its views for the current body length with it.
    """

    __slots__ = ("_key", "_ecb", "_layout")

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._ecb = AesEcb(key, _SLICE)
        self._layout = _Layout(self._ecb.buffer, 1)

    def seal(self, nonces: bytes,
             plaintexts: Sequence[bytes]) -> Iterator[memoryview]:
        """Each plaintext XOR-ed with the keystream from its nonce (item
        ``i``'s is ``nonces[16 * i:16 * i + 16]``), as a view of the work
        buffer valid until the next one is drawn."""
        lengths = list(map(len, plaintexts))
        layout = self._layout_for(max(lengths, default=0))
        if layout is None:
            yield from [memoryview(b"")] * len(lengths)
            return
        stride, rows = layout.stride, layout.rows
        carries = b"\xff" in nonces[8::_NONCE_LEN]
        view = memoryview(self._ecb.buffer)
        for first in range(0, len(lengths), rows):
            part = lengths[first:first + rows]
            self._xor(layout, np.ndarray((len(part), 1), f"V{_NONCE_LEN}",
                                         nonces, _NONCE_LEN * first),
                      carries, _joined(plaintexts[first:first + rows], part,
                                       stride), 0, stride)
            for start, length in zip(count(0, stride), part):
                yield view[start:start + length]

    def open(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Each ``nonce || body || tag`` blob's body XOR-ed with the
        keystream from its nonce."""
        lengths = list(map(len, blobs))
        layout = self._layout_for(max(lengths, default=0) - _OVERHEAD)
        if layout is None:
            return [b""] * len(lengths)
        rows = layout.rows
        width = layout.stride + _OVERHEAD
        out: list[bytes] = []
        for first in range(0, len(lengths), rows):
            part = lengths[first:first + rows]
            joined = _joined(blobs[first:first + rows], part, width)
            self._xor(layout, np.ndarray((len(part), 1), f"V{_NONCE_LEN}",
                                         joined, 0, (width, _NONCE_LEN)),
                      b"\xff" in joined[8::width], joined, _NONCE_LEN, width)
            outputs = layout.outputs[:len(part)].tolist()
            if part.count(width) == len(part):
                out += outputs
            else:
                out += [output[:length - _OVERHEAD]
                        for output, length in zip(outputs, part)]
        return out

    def _layout_for(self, longest: int) -> _Layout | None:
        """The views for bodies of at most ``longest`` bytes (``None``
        when that is none); one body longer than the buffer grows it."""
        blocks = (longest + _BLOCK - 1) // _BLOCK
        if blocks <= 0:
            return None
        if blocks != self._layout.blocks:
            if blocks * _BLOCK > len(self._ecb.buffer):
                self._ecb = AesEcb(self._key, blocks * _BLOCK)
            self._layout = _Layout(self._ecb.buffer, blocks)
        return self._layout

    def _xor(self, layout: _Layout, nonces: NDArray[np.void],
             carries: bool, inputs: bytes, head: int, width: int) -> None:
        """A row of counters from each of ``nonces`` (``carries``: some
        low word may wrap), keystream, then the bodies of ``inputs`` —
        rows of ``width`` bytes, each body ``head`` bytes in — XOR-ed
        into it."""
        rows = len(nonces)
        layout.counters[:rows] = nonces
        low, steps = layout.low[:rows], layout.steps
        np.add(low, steps, out=low)
        # A low word can wrap only from a top byte of 0xff (a row has far
        # fewer than 2**56 blocks); where one did, carry into the high word.
        if carries:
            layout.high[:rows] += low < steps
        self._ecb.encrypt(rows * layout.stride)
        keystream = layout.keystream[:rows]
        np.bitwise_xor(keystream, np.ndarray(
            keystream.shape, np.uint64, inputs, head, (width, 8)),
            out=keystream)


def _joined(items: Sequence[bytes], lengths: list[int], width: int) -> bytes:
    """The items end to end, each zero-padded to ``width`` bytes."""
    if lengths.count(width) != len(lengths):
        items = [part for item, length in zip(items, lengths)
                 for part in (item, bytes(width - length))]
    return b"".join(items)


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

    __slots__ = ("_enc_key", "_mac_key", "_randbytes", "_ctr", "_lock",
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
        self._ctr = BatchCtr(
            hashlib.sha256(_KEY_LABEL + self._enc_key).digest())
        # Held from a batch's keystream to the last read of its bodies:
        # they are views of the counter mode's one work buffer.
        self._lock = threading.Lock()
        # Keyed MAC states, the inner one holding the scheme label; copied
        # per message (skips re-keying, and the label costs nothing per
        # message).
        self._mac_inner, self._mac_outer = hmac_sha256_states(
            self._mac_key, _SCHEME_LABEL)

    def __getstate__(self) -> tuple[bytes, bytes, Callable[[int], bytes]]:
        # The OpenSSL context, the lock and the digest states are C
        # objects and cannot pickle; the keys fully determine them (checkpoint
        # shipping, ha/).
        return self._enc_key, self._mac_key, self._randbytes

    def __setstate__(self, state: tuple[bytes, bytes,
                                        Callable[[int], bytes]]) -> None:
        self._enc_key, self._mac_key, self._randbytes = state
        self._init_states()

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
        inner_copy, outer_copy = self._mac_inner.copy, self._mac_outer.copy
        out = []
        append = out.append
        with self._lock:
            bodies = self._ctr.seal(nonces, plaintexts)
            for start, body in zip(count(0, _NONCE_LEN), bodies):
                nonce = nonces[start:start + _NONCE_LEN]
                inner = inner_copy()
                inner.update(nonce)
                inner.update(body)
                outer = outer_copy()
                outer.update(inner.digest())
                append(b"".join((nonce, body, outer.digest())))
        return out

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """Batched :meth:`decrypt`; raises on the first tampered blob,
        before any keystream is made."""
        if min(map(len, blobs), default=_OVERHEAD) < _OVERHEAD:
            raise IntegrityError("ciphertext too short")
        inner_copy, outer_copy = self._mac_inner.copy, self._mac_outer.copy
        compare = hmac.compare_digest
        for blob in blobs:
            inner = inner_copy()
            inner.update(blob[:-_TAG_LEN])
            outer = outer_copy()
            outer.update(inner.digest())
            if not compare(outer.digest(), blob[-_TAG_LEN:]):
                raise IntegrityError("authentication tag mismatch")
        with self._lock:
            return self._ctr.open(blobs)

    def noise(self, count: int, length: int) -> list[bytes]:
        """``count`` blobs of ``length + ciphertext_overhead()`` random
        bytes, cut in order from one draw of the nonce entropy source.

        A ciphertext of a ``length``-byte value is a random nonce, a
        pseudorandom keystream XOR and a pseudorandom tag, so uniform
        bytes of its length are indistinguishable from it to anyone
        without the keys.  A holder of the keys who knows a blob is noise
        never opens it; one who tries gets :class:`IntegrityError`.
        """
        size = length + _OVERHEAD
        pool = self._randbytes(count * size)
        return [pool[start:start + size]
                for start in range(0, len(pool), size)]

    def ciphertext_overhead(self) -> int:
        """Bytes added to every plaintext (nonce + tag)."""
        return _OVERHEAD
