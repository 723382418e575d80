"""Cryptographic substrate: PRFs, authenticated encryption, key management.

Waffle (§3.1) encodes every plaintext key ``k`` as ``prf(k, ts_k)`` — a
pseudo-random function of the key and its current access timestamp — and
encrypts values with an authenticated symmetric scheme ``E(v)``.  This
package provides one implementation of each, built on the standard
library's :mod:`hashlib`/:mod:`hmac` (HMAC-SHA256 ids; SHAKE-256
keystream + HMAC-SHA256 encrypt-then-MAC values), preserving the
properties the protocol relies on: determinism of the PRF,
pseudo-randomness across distinct inputs, and tamper detection for
ciphertexts.
"""

from repro.crypto.aead import AuthenticatedCipher
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf

__all__ = ["AuthenticatedCipher", "KeyChain", "Prf"]
