"""Known-bad fixture: native crypto import, even inside ``crypto/`` (OBL305).

The package has exactly one PRF and one cipher, both built on
``hashlib``; no module — the crypto package included — may import a
native wheel.
"""
# oblint-fixture-path: repro/crypto/planted.py

from cryptography.hazmat.primitives import hashes


def fingerprint(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()
