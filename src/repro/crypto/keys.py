"""Key management for the trusted proxy.

The proxy owns all secrets (§3.1): the PRF key that derives storage ids,
the keys of the authenticated value cipher, and the seed of its protocol
rng — the coin flips behind the cache seed, the load shuffle, dummy names
and every tie-break, which a server that knew them could replay to name
the key behind an id.  :class:`KeyChain` derives all of them from one
master secret with domain-separated HMAC so a single seed reproduces an
entire deployment — important for deterministic tests and for replaying
experiments.
"""

from __future__ import annotations

import hmac
import hashlib
import os

from repro.crypto.aead import AuthenticatedCipher, RandomSource
from repro.crypto.prf import Prf

__all__ = ["KeyChain"]


def _derive(master: bytes, label: bytes) -> bytes:
    return hmac.new(master, b"repro.keychain/" + label, hashlib.sha256).digest()


class KeyChain:
    """Derives every proxy secret from a single master key.

    Parameters
    ----------
    master:
        Master secret.  ``None`` draws a fresh random secret.
    rng:
        Optional deterministic RNG forwarded to the value cipher (tests).

    Attributes
    ----------
    protocol_seed:
        Seed of the proxy's protocol rng: as secret as the keys.
    """

    __slots__ = ("_master", "prf", "cipher", "protocol_seed")

    def __init__(self, master: bytes | None = None,
                 rng: RandomSource | None = None) -> None:
        self._master = bytes(master) if master is not None else os.urandom(32)
        if not self._master:
            raise ValueError("master key must be non-empty")
        self.prf = Prf(_derive(self._master, b"prf"))
        self.cipher = AuthenticatedCipher(
            enc_key=_derive(self._master, b"enc"),
            mac_key=_derive(self._master, b"mac"),
            rng=rng,
        )
        self.protocol_seed = int.from_bytes(_derive(self._master, b"rng"),
                                            "big")

    @classmethod
    def from_seed(cls, seed: int,
                  rng: RandomSource | None = None) -> "KeyChain":
        """Deterministic keychain for reproducible experiments.

        Its protocol seed is ``seed`` itself, so a deployment whose config
        and keychain share one seed replays the same rng stream.
        """
        chain = cls(seed.to_bytes(16, "big", signed=True), rng=rng)
        chain.protocol_seed = seed
        return chain
