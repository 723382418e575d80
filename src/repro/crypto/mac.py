"""HMAC-SHA256 as two plain SHA-256 states.

RFC 2104: ``HMAC(key, m) = H((key ^ opad) || H((key ^ ipad) || m))``,
the key zero-padded to the 64-byte block and hashed first when longer.
Both pad blocks depend on the key alone, so a keyed object absorbs them
once and a message costs two ``.copy()`` calls and two short updates on
``hashlib`` objects::

    i = inner.copy(); i.update(message)
    o = outer.copy(); o.update(i.digest())
    mac = o.digest()

That is what :class:`hmac.HMAC` does inside; going through it instead
costs each message a Python-level ``copy`` (a ``__new__`` and an OpenSSL
``HMAC_CTX`` duplicate) and three wrapper frames — 1.6 against 0.9
microseconds per storage id.  :mod:`repro.crypto.prf` and
:mod:`repro.crypto.aead` therefore hold the two states and spell those
calls out where their loops run; a shared per-message helper would put a
frame back.  Outputs are bit-identical to :mod:`hmac` over
``prefix + message`` by definition; ``tests/test_crypto_kernels.py``
checks it against exactly that.  ``update`` drops the GIL past 2047
bytes, as it does under :mod:`hmac`.
"""

from __future__ import annotations

import hashlib

__all__ = ["hmac_sha256_states"]

_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


def hmac_sha256_states(
        key: bytes, prefix: bytes = b"",
) -> tuple["hashlib._Hash", "hashlib._Hash"]:
    """The ``(inner, outer)`` states of HMAC-SHA256 under ``key``, with
    ``prefix`` already absorbed as the start of every message."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK, b"\x00")
    return (hashlib.sha256(block.translate(_IPAD) + prefix),
            hashlib.sha256(block.translate(_OPAD)))
