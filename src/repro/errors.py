"""Exception hierarchy shared by every subsystem in the reproduction.

Keeping the exception types in one module lets callers catch a single
base class (:class:`ReproError`) at system boundaries while the library
raises precise subclasses internally.

The hierarchy distinguishes **transient** failures (timeouts, dropped
connections, a momentarily unavailable backend — retrying the operation
may succeed and leaks nothing new, since a retried Waffle round replays
the identical access pattern) from **fatal** protocol violations
(malformed frames, short pipelined replies, invariant breaches — retrying
cannot help and the connection or proxy must be torn down).  Transient
types mix in :class:`TransientError` and, where a stdlib equivalent
exists, the matching builtin (``TimeoutError``, ``ConnectionError``) so
generic retry loops recognize them too; :func:`is_retryable` is the
single classification point.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class TransientError(ReproError):
    """A retryable failure: re-issuing the operation may succeed.

    Never raised directly — concrete types subclass both their subsystem
    base (:class:`StorageError`, :class:`NetworkError`) and this marker.
    """


class ConfigurationError(ReproError):
    """A system was configured with invalid or inconsistent parameters."""


class StorageError(ReproError):
    """Base class for storage backend failures."""


class KeyNotFoundError(StorageError):
    """A requested storage id does not exist on the server."""

    def __init__(self, key: object) -> None:
        super().__init__(f"key not found: {key!r}")
        self.key = key


class DuplicateKeyError(StorageError):
    """A storage id was written twice, violating the write-once invariant."""

    def __init__(self, key: object) -> None:
        super().__init__(f"key already present: {key!r}")
        self.key = key


class BackendUnavailableError(StorageError, TransientError):
    """The storage backend refused the operation but may recover."""


class StorageTimeoutError(StorageError, TransientError, TimeoutError):
    """A storage operation timed out before a reply arrived.

    Also a builtin ``TimeoutError`` so callers using stdlib idioms
    (``except TimeoutError``) classify it correctly.
    """


class OverloadedError(TransientError):
    """The serving frontend shed this request under admission control.

    Raised (or delivered over the wire) when the pending-request queue
    has reached its configured cap.  Retryable by definition: shedding
    is load-dependent, not request-dependent, and a shed request never
    reached the proxy — the adversary-visible trace is unchanged, so a
    retry leaks nothing new.
    """


class NetworkError(ReproError):
    """Base class for transport-layer failures between proxy and server."""


class ConnectionDroppedError(NetworkError, TransientError, ConnectionError):
    """The connection to the peer dropped mid-operation.

    Also a builtin ``ConnectionError``; reconnecting and retrying is the
    expected recovery.
    """


class IntegrityError(ReproError):
    """Authenticated decryption failed: the ciphertext was tampered with."""


class ProtocolError(ReproError):
    """A protocol-level invariant was violated (e.g. malformed batch)."""


class PartialReplyError(ProtocolError):
    """A pipelined reply carried fewer entries than the request batch.

    Fatal rather than transient: a short MGET reply means the peer or the
    framing layer is broken, and silently proceeding would hand the proxy
    a misaligned id→value mapping.
    """

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"pipelined reply carried {got} of {expected} entries")
        self.expected = expected
        self.got = got


class ClosedError(ReproError):
    """An operation was issued against a closed datastore or proxy."""


def is_retryable(error: BaseException) -> bool:
    """Whether a failure is transient: safe and sensible to retry.

    True for the library's :class:`TransientError` family and for bare
    stdlib timeout/connection errors raised by lower layers.
    """
    return isinstance(error, (TransientError, TimeoutError, ConnectionError))
