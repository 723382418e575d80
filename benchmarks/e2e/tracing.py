"""Spans recorded from outside the program, around calls into each layer.

The tree is ``request -> serve.queue_wait -> round -> {crypto.prf,
crypto.aead.decrypt, crypto.aead.encrypt, ds.lru, net.multi_get,
net.commit_round}`` and ``request -> serve.deliver``.  The wrappers sit
on public seams only (``proxy.store``, ``proxy.cache``, ``keychain.prf``,
``keychain.cipher``, ``AsyncFrontend(execute=...)``, ``frontend.submit``)
and time each call with two clock reads.  A round's children are leaves
and never overlap, so each layer is kept as one aggregated child span per
round; the round's self time — the core: index, dedup, planning — is its
duration minus its children.

The store wrapper also checks the round's shape: exactly B ids read, B
deleted and B written, and no storage id ever read twice.
"""

from __future__ import annotations

import json
import time
from typing import Callable

from repro.net.protocol import decode_message, encode_message

__all__ = ["LAYERS", "RoundSpan", "Tracer"]

LAYERS = ("crypto.prf", "crypto.aead.decrypt", "crypto.aead.encrypt",
          "ds.lru", "net.multi_get", "net.commit_round")

_clock = time.perf_counter

#: Rounds whose storage frames are kept for re-encoding after the window.
_FRAME_SAMPLE_EVERY = 8
_FRAME_SAMPLE_CAP = 64


class RoundSpan:
    """One ``round`` span and its aggregated child spans."""

    __slots__ = ("start", "end", "outer", "request_ids", "seconds", "calls",
                 "items", "nbytes")

    def __init__(self, request_ids: list[int]) -> None:
        self.start = self.end = self.outer = 0.0
        self.request_ids = request_ids
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.items = dict.fromkeys(LAYERS, 0)
        self.nbytes = dict.fromkeys(LAYERS, 0)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.duration - sum(self.seconds.values())

    def add(self, layer: str, seconds: float, items: int = 1,
            nbytes: int = 0) -> None:
        self.seconds[layer] += seconds
        self.calls[layer] += 1
        self.items[layer] += items
        self.nbytes[layer] += nbytes


class _TimedPrf:
    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def derive(self, key, timestamp):
        start = _clock()
        out = self._inner.derive(key, timestamp)
        self._tracer.current.add("crypto.prf", _clock() - start)
        return out

    def derive_many(self, pairs):
        start = _clock()
        out = self._inner.derive_many(pairs)
        self._tracer.current.add("crypto.prf", _clock() - start, len(out))
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedCipher:
    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def encrypt_many(self, plaintexts):
        start = _clock()
        out = self._inner.encrypt_many(plaintexts)
        self._tracer.current.add(
            "crypto.aead.encrypt", _clock() - start, len(out),
            sum(map(len, out)))
        return out

    def decrypt_many(self, blobs):
        start = _clock()
        out = self._inner.decrypt_many(blobs)
        self._tracer.current.add(
            "crypto.aead.decrypt", _clock() - start, len(out),
            sum(map(len, blobs)))
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedCache:
    """Times every ``LruCache`` call the proxy's round makes."""

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def _timed(name):  # noqa: N805 - builds the methods below
        def method(self, *args):
            start = _clock()
            out = getattr(self._inner, name)(*args)
            self._tracer.current.add("ds.lru", _clock() - start)
            return out
        method.__name__ = name
        return method

    get_if_present_many = _timed("get_if_present_many")
    touch_if_present = _timed("touch_if_present")
    put = _timed("put")
    evict = _timed("evict")
    remove = _timed("remove")
    over_capacity = _timed("over_capacity")
    __contains__ = _timed("__contains__")
    __len__ = _timed("__len__")
    del _timed

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedStore:
    """Times the round's two storage calls and checks the round's shape."""

    def __init__(self, inner, tracer: "Tracer", batch: int) -> None:
        self._inner = inner
        self._tracer = tracer
        self._batch = batch
        self._read_ids: set[str] = set()

    def multi_get(self, keys):
        tracer = self._tracer
        start = _clock()
        blobs = self._inner.multi_get(keys)
        tracer.current.add("net.multi_get", _clock() - start, len(keys))
        fresh = set(keys)
        if (len(keys) != self._batch or len(fresh) != len(keys)
                or not fresh.isdisjoint(self._read_ids)):
            tracer.shape_violations += 1
        self._read_ids |= fresh
        if tracer.wants_frames():
            tracer.frames.append(("multi_get", list(keys), list(blobs)))
        return blobs

    def commit_round(self, deletes, puts):
        tracer = self._tracer
        start = _clock()
        self._inner.commit_round(deletes, puts)
        tracer.current.add("net.commit_round", _clock() - start, len(puts))
        if len(deletes) != self._batch or len(puts) != self._batch:
            tracer.shape_violations += 1
        if tracer.wants_frames():
            tracer.frames.append(("commit_round", list(deletes), list(puts)))

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Collects round and request spans; install once per datastore."""

    def __init__(self) -> None:
        self.rounds: list[RoundSpan] = []
        #: Calls made outside any round (there should be none) land here.
        self.stray = RoundSpan([])
        self.current = self.stray
        #: request id -> instant it entered / left ``frontend.submit``.
        self.enqueued: dict[int, float] = {}
        self.delivered: dict[int, float] = {}
        self.frames: list[tuple] = []
        self.shape_violations = 0

    def install(self, datastore) -> None:
        proxy = datastore.proxy
        proxy.store = _TimedStore(proxy.store, self, datastore.config.b)
        proxy.cache = _TimedCache(proxy.cache, self)
        keychain = proxy.keychain
        keychain.prf = _TimedPrf(keychain.prf, self)
        keychain.cipher = _TimedCipher(keychain.cipher, self)

    def wants_frames(self) -> bool:
        return (len(self.rounds) % _FRAME_SAMPLE_EVERY == 0
                and len(self.frames) < 2 * _FRAME_SAMPLE_CAP)

    def wrap_round(self, execute: Callable) -> Callable:
        """The ``round`` span: wraps ``datastore.execute_batch``."""
        def traced_execute(requests):
            span = RoundSpan([request.request_id for request in requests])
            outer_start = _clock()
            self.current = span
            span.start = _clock()
            try:
                return execute(requests)
            finally:
                span.end = _clock()
                self.current = self.stray
                self.rounds.append(span)
                span.outer = _clock() - outer_start
        return traced_execute

    def wrap_submit(self, frontend) -> None:
        """The ``request`` span: wraps ``AsyncFrontend.submit``."""
        inner = frontend.submit
        enqueued, delivered = self.enqueued, self.delivered

        async def traced_submit(request):
            enqueued[request.request_id] = _clock()
            try:
                return await inner(request)
            finally:
                delivered[request.request_id] = _clock()
        frontend.submit = traced_submit

    # ------------------------------------------------------------------
    # after the window
    # ------------------------------------------------------------------
    def request_spans(self, rounds: list[RoundSpan]
                      ) -> tuple[list[float], list[float]]:
        """(queue waits, deliver times) of the requests ``rounds`` carried."""
        waits, delivers = [], []
        for span in rounds:
            for request_id in span.request_ids:
                entered = self.enqueued.get(request_id)
                left = self.delivered.get(request_id)
                if entered is not None and left is not None:
                    waits.append(span.start - entered)
                    delivers.append(left - span.end)
        return waits, delivers

    def wire_costs(self) -> dict[str, float]:
        """Client-side encode/decode seconds and bytes per round.

        Re-encodes the sampled storage frames with ``repro.net.protocol``
        exactly as ``RemoteStore`` builds them.  The reply payloads are
        rebuilt the way the server encodes them (not timed) so decoding
        can be.
        """
        encode = decode = nbytes = 0.0
        sampled = 0
        for kind, first, second in self.frames:
            if kind == "multi_get":
                sampled += 1
                reply = encode_message(second)
                start = _clock()
                request = encode_message(
                    ["PIPELINE", *[["GET", key] for key in first]])
            else:
                reply = encode_message([1] * len(first)
                                       + [b"OK"] * len(second))
                start = _clock()
                commands = [["DEL", key] for key in first]
                commands += [["SET", key, bytes(value)]
                             for key, value in second]
                request = encode_message(["PIPELINE", *commands])
            middle = _clock()
            decode_message(reply)
            end = _clock()
            encode += middle - start
            decode += end - middle
            nbytes += len(request) + len(reply) + 8  # two frame headers
        sampled = max(sampled, 1)
        return {"encode_s": encode / sampled, "decode_s": decode / sampled,
                "bytes": nbytes / sampled}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (``--trace-out``)."""
        with open(path, "w") as out:
            for index, span in enumerate(self.rounds):
                out.write(json.dumps({
                    "span": "round", "id": index, "start": span.start,
                    "end": span.end, "requests": len(span.request_ids),
                    "self_s": span.self_seconds}) + "\n")
                for layer in LAYERS:
                    out.write(json.dumps({
                        "span": layer, "parent": index,
                        "seconds": span.seconds[layer],
                        "calls": span.calls[layer],
                        "items": span.items[layer]}) + "\n")
                for request_id in span.request_ids:
                    if request_id in self.enqueued:
                        out.write(json.dumps({
                            "span": "request", "id": request_id,
                            "round": index,
                            "start": self.enqueued[request_id],
                            "end": self.delivered.get(request_id)}) + "\n")
