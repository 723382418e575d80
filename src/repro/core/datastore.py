"""Public facade: a Waffle datastore over an untrusted key-value server.

:class:`WaffleDatastore` wires together the proxy, the (Redis-like) server
and the adversary recorder, handles value padding (all outsourced values
are equal length, §3.1), and exposes the batch entry point plus
insert/delete.  Most applications use it through
:class:`~repro.core.client.WaffleClient`, which buffers individual
get/put calls into R-request batches.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextvars import ContextVar

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.proxy import AnswerCallback, WaffleProxy, refuse_dummy_prefix
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.storage.base import StorageBackend
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim

__all__ = ["ROUND_ANSWER", "WaffleDatastore", "pad_value", "refuse_oversize",
           "unpad_value"]

_LENGTH_HEADER = 4

#: The answer callback of the round this thread is running, if any:
#: :class:`~repro.serve.frontend.AsyncFrontend`'s round thread sets it
#: around each round, and :meth:`WaffleDatastore.execute_batch` answers
#: through it.  Unset on every other thread, so a batch caller never sees one.
ROUND_ANSWER: ContextVar[AnswerCallback | None] = ContextVar(
    "ROUND_ANSWER", default=None)


def refuse_oversize(value: bytes, padded_size: int) -> None:
    """Raise ``ConfigurationError`` unless ``value`` fits ``padded_size``
    once length-prefixed (what :func:`pad_value` checks first)."""
    if len(value) > padded_size - _LENGTH_HEADER:
        raise ConfigurationError(
            f"value of {len(value)} bytes exceeds padded size "
            f"{padded_size} - {_LENGTH_HEADER} header bytes"
        )


def pad_value(value: bytes, padded_size: int) -> bytes:
    """Length-prefix and zero-pad ``value`` to exactly ``padded_size``."""
    refuse_oversize(value, padded_size)
    return _pad(value, padded_size)


def _pad(value: bytes, padded_size: int) -> bytes:
    """:func:`pad_value` of a value already known to fit."""
    header = len(value).to_bytes(_LENGTH_HEADER, "big")
    return header + value + b"\x00" * (padded_size - _LENGTH_HEADER - len(value))


def unpad_value(padded: bytes) -> bytes:
    """Inverse of :func:`pad_value`."""
    length = int.from_bytes(padded[:_LENGTH_HEADER], "big")
    return padded[_LENGTH_HEADER: _LENGTH_HEADER + length]


def _unpad(responses: list[ClientResponse]) -> list[ClientResponse]:
    """Strip the padding off each response's value, in place."""
    for resp in responses:
        resp.value = unpad_value(resp.value)
    return responses


class _PaddedItems(Mapping[str, bytes]):
    """The caller's items, each padded when it is looked up.

    What :meth:`WaffleProxy.initialize` walks instead of a second, padded
    copy of the dataset.  Lengths are checked here, in one scan, so an
    oversize value is refused before the load ships its first byte and no
    lookup can fail half-way through it.
    """

    __slots__ = ("_items", "_padded_size")

    def __init__(self, items: Mapping[str, bytes], padded_size: int) -> None:
        refuse_oversize(max(items.values(), key=len, default=b""),
                        padded_size)
        self._items = items
        self._padded_size = padded_size

    def __getitem__(self, key: str) -> bytes:
        # The scan in __init__ already refused an oversize value.
        return _pad(self._items[key], self._padded_size)

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class WaffleDatastore:
    """A complete Waffle deployment (server + proxy + recorder).

    Parameters
    ----------
    config:
        System parameters.  ``config.value_size`` is the *padded* object
        size; client values may be up to 4 bytes smaller.
    items:
        The initial N key-value pairs.
    store:
        The server, below the recorder; defaults to a write-once
        :class:`~repro.storage.redis_sim.RedisSim`.  A client-side wrapper
        (a fault injector) goes on ``datastore.proxy.store`` after the
        load, above the recorder: what it refuses is never recorded.
    record:
        Capture the adversary-visible access trace (the default — the
        security analysis needs it; disable for long perf-only runs).
    keychain:
        Proxy secrets; defaults to a fresh random keychain (pass
        ``KeyChain.from_seed`` for reproducibility).
    """

    def __init__(self, config: WaffleConfig, items: dict[str, bytes],
                 store: StorageBackend | None = None, record: bool = True,
                 keychain: KeyChain | None = None, log_ids: bool = False) -> None:
        self.config = config
        backing = store if store is not None else RedisSim(write_once=True)
        self.recorder: RecordingStore | None = None
        if record:
            self.recorder = RecordingStore(backing)
            backing = self.recorder
        self.proxy = WaffleProxy(config, store=backing, keychain=keychain,
                                 log_ids=log_ids)
        self.proxy.initialize(_PaddedItems(items, config.value_size))

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def execute_batch(self, requests: list[ClientRequest]
                      ) -> list[ClientResponse]:
        """Run one batch round (up to R requests) and return responses.

        Write-request values are padded on the way in; all response values
        are unpadded on the way out.  If the serving frontend set an answer
        callback on this thread for its round (:data:`ROUND_ANSWER`; it
        reaches here through an executor wrapper that passes only the
        requests), it is called with the unpadded responses as soon as the
        round has them — before the round's write-back, which an exception
        may still end after it — and the same list is returned.
        """
        size = self.config.value_size
        prepared = [
            ClientRequest(req.op, req.key, pad_value(req.value, size),
                          req.request_id)
            if req.value is not None else req
            for req in requests
        ]
        callback = ROUND_ANSWER.get()
        if callback is None:
            return _unpad(self.proxy.handle_batch(prepared))

        def answer(responses: list[ClientResponse]) -> None:
            callback(_unpad(responses))

        # The list answered is the list returned, unpadded once.
        return self.proxy.handle_batch(prepared, answer)

    # ------------------------------------------------------------------
    # inserts and deletes (§6.2)
    # ------------------------------------------------------------------
    def insert(self, key: str, value: bytes) -> None:
        """Queue a brand-new key; it takes effect within upcoming rounds."""
        refuse_dummy_prefix((key,))
        if self.proxy.contains_key(key):
            raise ConfigurationError(f"key already exists: {key!r}")
        if self.proxy.dummy_count - self.proxy.mutations.pending_inserts <= 0:
            raise ConfigurationError(
                "no dummy objects left to swap for the insert; "
                "provision a larger D"
            )
        self.proxy.mutations.enqueue_insert(
            key, pad_value(value, self.config.value_size)
        )

    def delete(self, key: str) -> None:
        """Queue removal of ``key``; its slot becomes a dummy object."""
        if not self.proxy.contains_key(key):
            raise KeyNotFoundError(key)
        self.proxy.mutations.enqueue_delete(key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def server_size(self) -> int:
        """Objects currently outsourced: N + D - C between rounds (the C
        cached real objects have no server copy)."""
        return len(self.proxy.store)
