"""The names the wall-clock benchmark records the crypto kernels under.

There is one implementation of the PRF and of the value cipher
(:mod:`repro.crypto.prf`, :mod:`repro.crypto.aead`).  ``benchmarks/e2e``
stamps every result with ``AuthenticatedCipher.backend_name`` and
refuses to measure anything but :data:`DEFAULT_BACKEND`; :data:`ENV_VAR`
is the variable it clears from child environments.  Nothing reads the
variable any more.
"""

__all__ = ["DEFAULT_BACKEND", "ENV_VAR"]

DEFAULT_BACKEND = "pure"
ENV_VAR = "REPRO_CRYPTO_BACKEND"
