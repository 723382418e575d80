"""Pseudo-random function used to derive storage identifiers.

Waffle derives the storage identifier of a plaintext key ``k`` as
``prf(k || ts)`` where ``ts`` is the key's access timestamp (§5).  The PRF
must be deterministic for equal inputs and indistinguishable from random
across distinct inputs; HMAC-SHA256 under a secret key satisfies both.

Storage identifiers are rendered as fixed-width hex strings so that every
identifier has identical length — the server learns nothing from id sizes.

Hot path: every batch round derives the ``B`` identifiers it writes (a
read recalls the id its object was written under), so the naive fresh
:class:`hmac.HMAC` per call — which re-keys the inner/outer pads every
time — is measurable.  The two keyed SHA-256 states
(:mod:`repro.crypto.mac`) are instead computed once at construction and
``.copy()``-ed per derivation, and :meth:`derive_many` amortizes the
remaining per-call dispatch across a whole batch.  Outputs are
bit-identical to the naive form, which the known-answer tests pin.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.mac import hmac_sha256_states

__all__ = ["Prf"]

#: Number of hex characters kept from the HMAC output.  128 bits is far
#: beyond birthday-collision range for any dataset this library handles.
_DIGEST_HEX_LEN = 32


class Prf:
    """Keyed pseudo-random function ``(key, timestamp) -> storage id``.

    Parameters
    ----------
    secret:
        The PRF secret.  Two instances built from equal secrets produce
        identical outputs, which lets tests replay derivations.
    """

    __slots__ = ("_secret", "_inner", "_outer")

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise ValueError("PRF secret must be non-empty")
        self._secret = bytes(secret)
        # Copying these restores the state right after each pad was
        # absorbed, skipping the re-keying work.
        self._inner, self._outer = hmac_sha256_states(self._secret)

    def derive(self, key: str, timestamp: int) -> str:
        """Return the storage identifier for ``key`` at ``timestamp``.

        The timestamp is folded into the HMAC input with an unambiguous
        separator so that ``("k1", 2)`` and ("k12", ...) style prefix
        collisions cannot produce equal inputs.
        """
        message = key.encode("utf-8") + b"\x00" + str(int(timestamp)).encode()
        return self.derive_bytes(message).hex()[:_DIGEST_HEX_LEN]

    def derive_many(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        """Batched :meth:`derive` over ``(key, timestamp)`` pairs.

        Output ``i`` equals ``derive(*pairs[i])`` exactly; the batch form
        hoists attribute lookups out of the per-item loop and formats each
        distinct timestamp once per call (a round's writes share a few).
        """
        keyed_inner, keyed_outer = self._inner.copy, self._outer.copy
        cut = _DIGEST_HEX_LEN
        suffixes: dict[int, bytes] = {}
        out = []
        append = out.append
        for key, timestamp in pairs:
            suffix = suffixes.get(timestamp)
            if suffix is None:
                suffix = suffixes[timestamp] = (
                    b"\x00" + str(int(timestamp)).encode())
            inner = keyed_inner()
            inner.update(key.encode("utf-8") + suffix)
            outer = keyed_outer()
            outer.update(inner.digest())
            append(outer.hexdigest()[:cut])
        return out

    def __getstate__(self) -> bytes:
        # The cached digest states are C objects and cannot pickle; the
        # secret fully determines them (checkpoint shipping, ha/).
        return self._secret

    def __setstate__(self, state: bytes) -> None:
        self.__init__(state)

    def derive_bytes(self, data: bytes) -> bytes:
        """Raw HMAC over arbitrary bytes; used for subkey derivation."""
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Prf(secret=<{len(self._secret)} bytes>)"
