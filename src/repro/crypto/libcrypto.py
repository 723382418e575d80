"""AES-256 from the libcrypto that :mod:`hashlib` already maps.

The standard library's ``_hashlib`` extension links OpenSSL's libcrypto,
so every interpreter that imported :mod:`hashlib` has AES (with AES-NI
where the CPU has it) in its address space.  ``ctypes.PyDLL`` on that
extension's own file returns the handle the import already holds, and a
symbol looked up through it resolves in the libcrypto the extension
links: no library name is guessed, no subprocess runs, and no new shared
object is mapped (``tests/test_package_surface.py`` checks the last).
That needs a ``_hashlib`` that is a shared object linking libcrypto
dynamically with its ``EVP_*`` symbols visible, as CPython's builds on
Linux are; elsewhere importing this module raises one
:class:`ImportError` that says so.

This is the package's one foreign-function file: oblint OBL305 flags a
``ctypes`` import anywhere else under ``repro/``.  Two entry points:

* :class:`AesEcb`, the value cipher's kernel (:mod:`repro.crypto.aead`):
  one OpenSSL context a key, made once, that encrypts a prefix of its
  own work buffer in place in one ``EVP_EncryptUpdate``;
* :func:`aes256_ctr`, OpenSSL's own counter mode with a fresh context a
  message — the per-object reference
  (:class:`repro.testing.reference.ScalarCipher`) the kernel's counter
  arithmetic is held against.

Calls go through ``PyDLL`` and so keep the GIL: a call is serialized
with every other Python thread.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, c_int, c_void_p
from typing import Any

__all__ = ["AesEcb", "aes256_ctr"]

_KEY_LEN = 32


def _symbols() -> tuple[Any, ...]:
    """The libcrypto functions this module calls, looked up through
    ``_hashlib``'s own handle."""
    try:
        import _hashlib

        lib = ctypes.PyDLL(_hashlib.__file__)
        return tuple(getattr(lib, name) for name in (
            "EVP_CIPHER_CTX_new", "EVP_CIPHER_CTX_free",
            "EVP_CIPHER_CTX_set_padding", "EVP_aes_256_ecb",
            "EVP_aes_256_ctr", "EVP_EncryptInit_ex", "EVP_EncryptUpdate"))
    except (ImportError, AttributeError, OSError) as error:
        raise ImportError(
            "repro.crypto takes AES from the OpenSSL libcrypto that the "
            "standard library's _hashlib links: it needs _hashlib built as "
            "a shared object that links libcrypto dynamically with its "
            f"EVP symbols visible (CPython on Linux): {error}") from error


(_CTX_NEW, _CTX_FREE, _SET_PADDING, _ECB, _CTR, _INIT,
 _UPDATE) = _symbols()

_CTX_NEW.argtypes = ()
_CTX_NEW.restype = c_void_p
_CTX_FREE.argtypes = (c_void_p,)
_CTX_FREE.restype = None
_SET_PADDING.argtypes = (c_void_p, c_int)
_SET_PADDING.restype = c_int
_ECB.argtypes = ()
_ECB.restype = c_void_p
_CTR.argtypes = ()
_CTR.restype = c_void_p
# EVP_EncryptInit_ex(ctx, cipher, engine, key, iv)
_INIT.argtypes = (c_void_p, c_void_p, c_void_p, c_void_p, c_void_p)
_INIT.restype = c_int
# EVP_EncryptUpdate(ctx, out, &outl, in, inl); in place when out == in.
_UPDATE.argtypes = (c_void_p, c_void_p, POINTER(c_int), c_void_p, c_int)
_UPDATE.restype = c_int


def _new_context(cipher: int | None, key: bytes, iv: bytes | None) -> int:
    if len(key) != _KEY_LEN:
        raise ValueError(f"AES-256 takes a {_KEY_LEN}-byte key")
    ctx: int | None = _CTX_NEW()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    if _INIT(ctx, cipher, None, key, iv) != 1:
        _CTX_FREE(ctx)
        raise RuntimeError("EVP_EncryptInit_ex failed")
    return ctx


class AesEcb:
    """AES-256-ECB encryption under one key, in place in ``buffer``.

    Every call hands OpenSSL whole 16-byte blocks with padding off, so
    the context never carries a partial block from one call to the next
    and is reused for the object's lifetime (the key schedule is made
    once); it is freed, and its key schedule cleansed, with the object.
    ``buffer`` is ``size`` bytes, made with the object and exported to
    OpenSSL for its lifetime (so it cannot be resized).
    """

    __slots__ = ("_ctx", "buffer", "_blocks", "_address", "_written")

    def __init__(self, key: bytes, size: int) -> None:
        self._ctx: int | None = None
        self._ctx = _new_context(_ECB(), key, None)
        _SET_PADDING(self._ctx, 0)
        self.buffer = bytearray(size)
        # Holds the buffer's export: OpenSSL writes through its address,
        # passed as a plain int (ctypes converts one faster than the array).
        self._blocks = (ctypes.c_char * size).from_buffer(self.buffer)
        self._address = ctypes.addressof(self._blocks)
        self._written = ctypes.byref(c_int())

    def encrypt(self, size: int) -> None:
        """Replace every 16-byte block of ``buffer``'s first ``size``
        bytes by its encryption."""
        if size % 16 or not 0 < size <= len(self.buffer):
            raise ValueError("AES-ECB takes whole 16-byte blocks of the "
                             "buffer")
        if _UPDATE(self._ctx, self._address, self._written, self._address,
                   size) != 1:
            raise RuntimeError("EVP_EncryptUpdate failed")

    def __del__(self) -> None:
        if self._ctx:
            _CTX_FREE(self._ctx)
            self._ctx = None


def aes256_ctr(key: bytes, counter: bytes, data: bytes) -> bytes:
    """``data`` XOR-ed with the AES-256-CTR keystream whose first counter
    block is ``counter`` (NIST SP 800-38A: the whole 16-byte block is
    the counter, incremented mod 2**128), through OpenSSL's own counter
    mode in a context made for this one message."""
    if len(counter) != 16:
        raise ValueError("the initial counter block is 16 bytes")
    ctx = _new_context(_CTR(), key, counter)
    try:
        out = ctypes.create_string_buffer(len(data))
        if _UPDATE(ctx, out, ctypes.byref(c_int()), data, len(data)) != 1:
            raise RuntimeError("EVP_EncryptUpdate failed")
    finally:
        _CTX_FREE(ctx)
    return out.raw
