"""Known-bad fixture: a ``ctypes`` import outside ``crypto/`` (OBL305).

The package's one foreign-function binding is
``repro/crypto/libcrypto.py``; a C call anywhere else escapes the crypto
package and its tests.
"""
# oblint-fixture-path: repro/core/planted.py

import ctypes


def address_of(buffer: bytearray) -> int:
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))
