"""Pins the error taxonomy: hierarchy, retryability, and payloads.

Retry loops, the chaos harness, and the HA recovery path all dispatch on
``isinstance`` checks against this hierarchy — a quietly rebased
exception class changes recovery behaviour without failing any
functional test.  This module freezes the contract.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BackendUnavailableError,
    ClosedError,
    ConfigurationError,
    ConnectionDroppedError,
    DuplicateKeyError,
    IntegrityError,
    KeyNotFoundError,
    NetworkError,
    PartialReplyError,
    ProtocolError,
    ReproError,
    StorageError,
    StorageTimeoutError,
    TransientError,
    is_retryable,
)

ALL_ERRORS = [
    BackendUnavailableError, ClosedError, ConfigurationError,
    ConnectionDroppedError, DuplicateKeyError, IntegrityError, KeyNotFoundError,
    NetworkError, PartialReplyError, ProtocolError, StorageError,
    StorageTimeoutError, TransientError,
]


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for cls in ALL_ERRORS:
            assert issubclass(cls, ReproError)
            assert issubclass(cls, Exception)

    def test_one_base_catches_the_library(self):
        with pytest.raises(ReproError):
            raise KeyNotFoundError("x")
        with pytest.raises(ReproError):
            raise ConnectionDroppedError("gone")

    def test_storage_family(self):
        for cls in (KeyNotFoundError, DuplicateKeyError,
                    BackendUnavailableError, StorageTimeoutError):
            assert issubclass(cls, StorageError)
        assert not issubclass(ConnectionDroppedError, StorageError)

    def test_transient_marker_membership(self):
        # Exactly these concrete types are transient; everything else in
        # the library is fatal.  Extending this set is an API change.
        transient = {BackendUnavailableError, StorageTimeoutError,
                     ConnectionDroppedError}
        for cls in ALL_ERRORS:
            if cls is TransientError:
                continue
            assert issubclass(cls, TransientError) == (cls in transient), cls

    def test_stdlib_aliases(self):
        # Generic retry loops using stdlib idioms must classify library
        # errors correctly without importing repro.errors.
        assert issubclass(StorageTimeoutError, TimeoutError)
        assert issubclass(ConnectionDroppedError, ConnectionError)
        assert not issubclass(BackendUnavailableError,
                              (TimeoutError, ConnectionError))

    def test_partial_reply_is_protocol_not_transient(self):
        # A short pipelined reply means misaligned id->value framing:
        # blind resend is unsafe, recovery goes through failover-replay.
        assert issubclass(PartialReplyError, ProtocolError)
        assert not issubclass(PartialReplyError, TransientError)


class TestPayloads:
    def test_key_errors_carry_the_key(self):
        assert KeyNotFoundError("abc").key == "abc"
        assert DuplicateKeyError("abc").key == "abc"
        assert "abc" in str(KeyNotFoundError("abc"))

    def test_partial_reply_carries_counts(self):
        error = PartialReplyError(expected=8, got=5)
        assert (error.expected, error.got) == (8, 5)
        assert "5 of 8" in str(error)


class TestRetryability:
    @pytest.mark.parametrize("error, retryable", [
        (BackendUnavailableError("busy"), True),
        (StorageTimeoutError("slow"), True),
        (ConnectionDroppedError("gone"), True),
        (TimeoutError("bare stdlib"), True),
        (ConnectionError("bare stdlib"), True),
        (ConnectionResetError("stdlib subclass"), True),
        (KeyNotFoundError("k"), False),
        (DuplicateKeyError("k"), False),
        (PartialReplyError(4, 2), False),
        (ProtocolError("bad frame"), False),
        (IntegrityError("tampered"), False),
        (ConfigurationError("bad n"), False),
        (ClosedError("closed"), False),
        (ValueError("unrelated"), False),
    ])
    def test_classification_table(self, error, retryable):
        assert is_retryable(error) == retryable

    def test_transient_marker_is_sufficient(self):
        class CustomTransient(StorageError, TransientError):
            pass

        assert is_retryable(CustomTransient("backend-specific"))
