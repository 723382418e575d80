"""The Waffle proxy: Algorithm 1 plus initialization (§6).

The proxy is the trusted, stateful component.  One batch round is
:meth:`WaffleProxy.handle_batch` running the two phase tables at the
bottom of this module — plan, read, decrypt what the requests missed on;
then decrypt the rest, cache, write, commit — top to bottom over a
round-local :class:`RoundPlan`, with every response known between the two
(the caller may reply there); each phase is one method whose
docstring says what it does and where it deviates from the pseudocode as
printed (DESIGN.md §6 maps phases to the paper's lines and to span names).
Every round reads exactly ``B`` ids, each ``prf(k, ts_k)``, and writes
exactly ``B`` ids, whatever the requests were.  Keys are int *slots* that
remember their storage id, so only writes run the PRF (DESIGN.md §6).

Insert/delete support (§6.2 end) swaps dummy objects for real objects and
vice versa; see :mod:`repro.core.mutations`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.obs import OBS

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.mutations import MutationQueue
from repro.core.timestamp_index import (DummyObjectIndex, RealObjectIndex,
                                        raise_first_breach)
from repro.crypto.keys import KeyChain
from repro.ds.lru import LruCache
from repro.errors import ConfigurationError, ProtocolError
from repro.storage.base import StorageBackend
from repro.workloads.trace import Operation

__all__ = ["RoundStats", "WaffleProxy"]

_DUMMY_PREFIX = "\x00dummy:"

#: Objects sealed per step of the initial load: what it holds in plaintext
#: and ciphertext at once, beyond what the store has already taken.
_LOAD_CHUNK = 256

#: Cache-miss sentinel for single-lookup reads (values may be any bytes).
_MISS = object()

#: A remembered storage id: the 128 bits behind the PRF's 32 hex digits.
_ID = np.dtype("V16")

#: Called with a round's responses once every one is known, before the
#: round writes back (:meth:`WaffleProxy.handle_batch`).
AnswerCallback = Callable[[list[ClientResponse]], None]


class SlotCache(LruCache[int, bytes]):
    """The proxy's LRU cache, keyed by slot; ``key in`` takes a client key."""

    __slots__ = ("_slot_of",)

    def __init__(self, capacity: int, slot_of: Mapping[str, int]) -> None:
        super().__init__(capacity)
        self._slot_of = slot_of

    def __contains__(self, key: object) -> bool:
        slot = self._slot_of.get(key) if isinstance(key, str) else key
        return slot in self._entries


def refuse_dummy_prefix(keys: Iterable[str]) -> None:
    """Refuse client keys that would derive a dummy's storage ids."""
    if any(key.startswith(_DUMMY_PREFIX) for key in keys):
        raise ConfigurationError("client keys may not use the dummy prefix")


@dataclass(slots=True)
class RoundStats:
    """Operation counts of one batch round, consumed by the cost model."""

    round: int
    requests: int = 0
    cache_hits: int = 0
    unique_real_reads: int = 0  # r
    fake_real_reads: int = 0  # f_R
    fake_dummy_reads: int = 0  # f_D actually issued
    server_reads: int = 0
    server_writes: int = 0
    server_deletes: int = 0
    prf_evals: int = 0
    decryptions: int = 0
    encryptions: int = 0
    cache_ops: int = 0
    index_ops: int = 0


@dataclass(slots=True)
class RoundPlan:
    """One round's working set, handed from phase to phase.

    Built by :meth:`WaffleProxy.handle_batch` and dropped when it returns:
    nothing here outlives the round, so a checkpoint — or a crash — sees
    only the proxy's own attributes.
    """

    requests: list[ClientRequest]
    #: each request's slot, resolved before the round began
    slots: list[int]
    stats: RoundStats
    #: request id -> response value
    cli_resp: dict[int, bytes] = field(default_factory=dict)
    #: missed slot -> [(request id, wants the fetched value)]
    dedup: dict[int, list[tuple[int, bool]]] = field(default_factory=dict)
    #: storage id -> slot: the B ids this round reads
    read_batch: dict[str, int] = field(default_factory=dict)
    #: deleted slots fetched only to clear their ids, the retired dummies'
    #: slots inserts took, and ``(slot, name)`` of each dummy a delete births
    dropped_reads: set[int] = field(default_factory=set)
    inserted: list[int] = field(default_factory=list)
    newborn_dummies: list[tuple[int, str]] = field(default_factory=list)
    #: ``sorted(read_batch)``, each one's slot, and what the server
    #: returned for it; the fetched reals split in ``sids`` order: the
    #: requests' misses, decrypted before the answer, and the rest (fake
    #: reals, forced delete reads), ciphertexts until the write half
    #: decrypts them in place
    sids: list[str] = field(default_factory=list)
    read_slots: list[int] = field(default_factory=list)
    blobs: list[bytes] = field(default_factory=list)
    missed: list[bytes] = field(default_factory=list)
    rest: list[bytes] = field(default_factory=list)
    #: The write plan in emission order, as three parallel lists: each
    #: write's slot, id timestamp and plaintext (``None`` for a dummy)
    write_slots: list[int] = field(default_factory=list)
    write_stamps: list[int] = field(default_factory=list)
    write_values: list[bytes | None] = field(default_factory=list)
    #: the slots evicted so far, in eviction order; each write's new id;
    #: and the sealed ``(id, blob)`` batch
    evicted: dict[int, None] = field(default_factory=dict)
    write_ids: list[str] = field(default_factory=list)
    write_batch: list[tuple[str, bytes]] = field(default_factory=list)

    def responses(self) -> list[ClientResponse]:
        """One response per request, in request order: complete once the
        round has answered."""
        cli_resp = self.cli_resp
        return [ClientResponse(rid := request.request_id, request.key,
                               cli_resp[rid])
                for request in self.requests]


@dataclass(slots=True)
class ProxyTotals:
    """Lifetime aggregates across all rounds."""

    rounds: int = 0
    requests: int = 0
    cache_hits: int = 0
    max_transient_cache: int = 0
    stats_by_round: list = field(default_factory=list)


class WaffleProxy:
    """Stateful trusted proxy executing Algorithm 1.

    Parameters
    ----------
    config:
        System parameters (Table 1).
    store:
        The untrusted server.  Wrap it in a
        :class:`~repro.storage.recording.RecordingStore` to capture the
        adversary's view; the proxy calls ``store.next_round()`` once
        per round.
    keychain:
        Proxy-held secrets, the protocol rng's seed among them; defaults
        to a fresh random keychain.
    keep_round_stats:
        Retain per-round :class:`RoundStats` (benchmarks need them; long
        soak tests can disable to bound memory).
    """

    #: What ended a round after it began; then every round refuses, and
    #: only a restore from a checkpoint serves again (not checkpointed).
    failure: BaseException | None = None

    def __init__(self, config: WaffleConfig, store: StorageBackend,
                 keychain: KeyChain | None = None,
                 keep_round_stats: bool = True,
                 log_ids: bool = False) -> None:
        self.config = config
        self.store = store
        self.keychain = keychain if keychain is not None else KeyChain()
        self._rng = random.Random(self.keychain.protocol_seed)
        self._slots: dict[str, int] = {}
        self.cache = SlotCache(config.c, self._slots)
        self.ts = 0
        self.totals = ProxyTotals()
        self._keep_round_stats = keep_round_stats
        self.mutations = MutationQueue()
        # Empty until initialize() loads the dataset.  The key table: slot
        # -> name, client key -> slot (above), and which slots hold dummies.
        self._names: list[str] = []
        self._is_dummy = bytearray()
        self._real_index = RealObjectIndex(0)
        self._dummy_index = DummyObjectIndex(())
        #: slot -> id of its server copy (cached ``prf``; not checkpointed)
        self._ids = np.zeros(0, _ID)
        self._initialized = False
        self._last_stats: RoundStats | None = None
        #: Optional storage-id provenance (sid -> plaintext key): the
        #: system-side ground truth the security analysis uses to measure
        #: beta, which the adversary cannot observe (§8.3.1).
        self.id_log: dict[str, str] | None = {} if log_ids else None

    # ------------------------------------------------------------------
    # initialization (§6.1)
    # ------------------------------------------------------------------
    def initialize(self, items: Mapping[str, bytes]) -> None:
        """Load the initial dataset: seed the cache, indexes and the server.

        ``items`` is read, never copied: each value is looked up once, when
        it is cached or sealed, so a mapping that builds its values on
        lookup (:class:`~repro.core.datastore.WaffleDatastore` pads there)
        costs one value at a time.
        """
        if self._initialized:
            raise ProtocolError("proxy already initialized")
        if len(items) != self.config.n:
            raise ConfigurationError(
                f"expected N={self.config.n} items, got {len(items)}"
            )
        refuse_dummy_prefix(items)

        cfg = self.config
        seed_base = self._rng.randrange(2**63)
        # Reals take slots 0..N-1 in item order, dummies N onward, named by
        # the bare prefix until _prf_inputs completes it from the slot.
        self._names = [*items, *[_DUMMY_PREFIX] * cfg.d]
        self._slots.update(zip(items, range(cfg.n)))
        size = cfg.n + cfg.d
        self._is_dummy = bytearray(cfg.n) + b"\x01" * cfg.d
        self._real_index = RealObjectIndex(size)
        self._ids = np.zeros(size, _ID)
        dummy_slots = list(range(cfg.n, size))
        self._dummy_index = DummyObjectIndex(
            dummy_slots, seed=seed_base + 17,
            reshuffle=cfg.dummy_policy == "reshuffle",
        )

        # Randomly chosen cache seed of C real objects.
        order = list(self._slots.values())
        self._rng.shuffle(order)
        for slot in order[: cfg.c]:
            self.cache.put(slot, items[self._names[slot]])
        del order[: cfg.c]

        # Remaining reals and all dummies go out shuffled, and are sealed
        # in that order a chunk at a time, as the store pulls it.  One
        # payload-sized rng step per dummy comes before the shuffle, so the
        # load order and every later draw are the pinned ones.
        self._real_index.mark_server_resident_many(order)
        for _ in dummy_slots:
            self._skip_dummy_payload()
        order += dummy_slots
        self._rng.shuffle(order)
        self.store.multi_put(self._seal_load(items, order))
        self._initialized = True

    def _seal_load(self, items: Mapping[str, bytes], order: list[int]
                   ) -> Iterator[tuple[str, bytes]]:
        """The initial load as ``(id, blob)`` pairs in ``order``, made
        ``_LOAD_CHUNK`` objects at a time: one ``derive_many`` and one
        :meth:`_seal_values` call a chunk.

        A chunk is made whole before its first pair goes out, so the time
        between two frames of the load grows with the number of reals a
        frame carries — a count the shuffle drew — and says nothing of
        which of its ids are dummies.
        """
        n, names = self.config.n, self._names
        for start in range(0, len(order), _LOAD_CHUNK):
            chunk = order[start:start + _LOAD_CHUNK]
            sids = self._encode_ids(chunk, [0] * len(chunk))
            yield from zip(sids, self._seal_values(
                [items[names[slot]] if slot < n else None for slot in chunk]))

    def _seal_values(self, values: list[bytes | None]) -> list[bytes]:
        """Each value encrypted, and each ``None`` — a dummy — replaced by
        noise of a ciphertext's length, in place: one ``encrypt_many`` and
        one ``noise`` call on ``self.keychain.cipher``.

        The proxy knows its dummies and never opens one, so a dummy's copy
        only has to look like a ciphertext to the server, and noise does.
        """
        cipher = self.keychain.cipher
        reals = [value for value in values if value is not None]
        sealed = iter(cipher.encrypt_many(reals))
        noise = iter(cipher.noise(len(values) - len(reals),
                                  self.config.value_size))
        return [next(noise) if value is None else next(sealed)
                for value in values]

    # ------------------------------------------------------------------
    # storage ids
    # ------------------------------------------------------------------
    def _encode_ids(self, slots: list[int], stamps: list[int]) -> list[str]:
        """GetIndex over objects about to be written, each slot with its
        timestamp: ``prf(k, ts_k)`` each, remembered as the slot's id."""
        pairs = self._prf_inputs(zip(slots, stamps))
        sids = self.keychain.prf.derive_many(pairs)
        self._remember(slots, sids)
        if self.id_log is not None:
            self.id_log.update(zip(sids, [key for key, _ in pairs]))
        return sids

    def _prf_inputs(self, objects: Iterable[tuple[int, int]]
                    ) -> list[tuple[str, int]]:
        """``(name, timestamp)`` of each ``(slot, timestamp)``."""
        names, first_dummy = self._names, self.config.n
        return [(name if (name := names[slot]) != _DUMMY_PREFIX
                 else f"{name}{slot - first_dummy:012d}", ts)
                for slot, ts in objects]

    def _remember(self, slots: list[int], sids: list[str]) -> None:
        self._ids[np.fromiter(slots, np.intp, len(slots))] = np.frombuffer(
            bytes.fromhex("".join(sids)), _ID)

    def _recall_ids(self, slots: list[int]) -> list[str]:
        """The ids ``slots``' server copies were written under: one lookup."""
        hexed = self._ids.take(np.fromiter(slots, np.intp, len(slots))
                               ).tobytes().hex()
        return [hexed[i:i + 32] for i in range(0, len(hexed), 32)]

    def _outsourced(self) -> list[tuple[int, int]]:
        """``(slot, id timestamp)`` of every object with a server copy: the
        resident reals, then the dummies."""
        real_index = self._real_index
        return [(slot, real_index.timestamp(slot))
                for slot in self._slots.values()
                if real_index.is_server_resident(slot)
                ] + list(self._dummy_index.items())

    def _rederive_ids(self) -> None:
        """Derive every outsourced slot's id again, in one pass."""
        self._ids = np.zeros(len(self._names), _ID)
        outsourced = self._outsourced()
        self._encode_ids([slot for slot, _ in outsourced],
                         [ts for _, ts in outsourced])

    def _skip_dummy_payload(self) -> None:
        """Step the rng as ``randbytes(value_size)`` does (it is this
        ``getrandbits`` call) and keep nothing: each dummy write holds this
        place in the rng stream, which the trace pins fix.  A dummy's blob
        is noise (:meth:`_seal_values`)."""
        self._rng.getrandbits(8 * self.config.value_size)

    def _new_dummy_key(self) -> str:
        return f"{_DUMMY_PREFIX}n{self._rng.randrange(2**63):015x}"

    # ------------------------------------------------------------------
    # Algorithm 1: the driver
    # ------------------------------------------------------------------
    def handle_batch(self, requests: list[ClientRequest],
                     on_answer: AnswerCallback | None = None
                     ) -> list[ClientResponse]:
        """Process one batch of up to R client requests; returns responses.

        ``on_answer``, if given, is called on this thread with the same
        list as soon as every response is known — after ``_decrypt``, before
        the write half (``_decrypt_rest``, ``_cache_fetched``, ``_evict``,
        ``_derive``, ``_seal``, ``_commit``) — so a caller can reply while
        the round decrypts its unrequested reads and writes back.

        What can be refused cleanly is refused before the round begins
        (an uninitialized proxy, more than R requests, a repeated request
        id, an unknown key, a write whose value is not ``value_size``
        bytes), and the proxy is as it was.  Past that, any exception — from planning
        to the commit, ``on_answer`` included — leaves the cache, the
        indexes and the server out of step: it is kept as :attr:`failure`
        and re-raised, and from then on every round is refused before it
        touches the store (:meth:`refuse_after_failure`).  Only a proxy
        restored from a checkpoint serves again.
        """
        self.refuse_after_failure()
        if not self._initialized:
            raise ProtocolError("proxy not initialized")
        if len(requests) > self.config.r:
            raise ProtocolError(
                f"batch carries {len(requests)} requests, R={self.config.r}")
        if len({request.request_id for request in requests}) < len(requests):
            # Responses are matched to requests by id.
            raise ProtocolError("batch repeats a request id")
        slots, size = self._slots, self.config.value_size
        try:
            # A value of another length (§3.1) is left out, so counted below.
            req_slots = [slots[request.key] for request in requests
                         if request.value is None
                         or len(request.value) == size]
        except KeyError as exc:
            raise ProtocolError(
                f"request for unknown key: {exc.args[0]!r}") from None
        if len(req_slots) < len(requests):
            raise ProtocolError(f"a write's value is not the padded {size} bytes")
        self.ts += 1
        try:
            self.store.next_round()
            plan = RoundPlan(requests, req_slots,
                             RoundStats(round=self.ts, requests=len(requests)))
            if OBS.enabled:
                return self._run_observed(plan, on_answer)
            # The zero-cost contract: one branch per round when off.
            for _span, _labels, run, _sized in _ANSWER_PHASES:
                run(self, plan)
            responses = plan.responses()
            if on_answer is not None:
                on_answer(responses)
            for _span, _labels, run, _sized in _WRITE_PHASES:
                run(self, plan)
            self._account(plan)
            return responses
        except BaseException as error:
            self.failure = error
            raise

    def refuse_after_failure(self) -> None:
        """Raise ``ProtocolError`` from :attr:`failure` if a round failed."""
        if self.failure is not None:
            raise ProtocolError(
                f"a round failed ({type(self.failure).__name__}), so this "
                "proxy's state is unknown: restore from a checkpoint"
            ) from self.failure

    def _run_observed(self, plan: RoundPlan,
                      on_answer: AnswerCallback | None
                      ) -> list[ClientResponse]:
        """The same pipeline under the span tree: a ``round`` root with one
        child per phase, and ``on_answer`` between the halves, inside the
        root but in no phase.  ``open_span(root=True)`` resets the thread's
        span stack, so a chaos-injected mid-round exception cannot corrupt
        the parentage of later rounds."""
        obs, clock = OBS, time.perf_counter
        round_tok = obs.open_span("round", root=True)
        start = clock()
        self._run_phases(plan, _ANSWER_PHASES)
        responses = plan.responses()
        if on_answer is not None:
            on_answer(responses)
        self._run_phases(plan, _WRITE_PHASES)
        self._account(plan)
        stats, reg = plan.stats, obs.registry
        reg.counter("rounds.total", **_LABELS).inc()
        reg.counter("requests.total", **_LABELS).inc(stats.requests)
        reg.counter("cache.hits.total", **_LABELS).inc(stats.cache_hits)
        reg.counter("server.reads.total", **_LABELS).inc(stats.server_reads)
        reg.counter("server.writes.total", **_LABELS).inc(stats.server_writes)
        reg.counter("batch.real.total", **_LABELS).inc(stats.unique_real_reads)
        reg.counter("batch.fake_real.total", **_LABELS).inc(stats.fake_real_reads)
        reg.counter("batch.fake_dummy.total", **_LABELS).inc(stats.fake_dummy_reads)
        reg.gauge("cache.size", **_LABELS).set(len(self.cache))
        obs.close_span(round_tok, clock() - start, labels=_LABELS,
                       round=self.ts, requests=stats.requests,
                       real=stats.unique_real_reads,
                       fake_real=stats.fake_real_reads,
                       fake_dummy=stats.fake_dummy_reads,
                       cache_hits=stats.cache_hits)
        return responses

    def _run_phases(self, plan: RoundPlan, phases: _PhaseTable) -> None:
        """Run ``phases`` top to bottom, each under its own span."""
        obs, clock = OBS, time.perf_counter
        mark = clock()
        for span, labels, run, sized in phases:
            tok = obs.open_span(span)
            run(self, plan)
            now = clock()
            attrs = {sized[0]: len(getattr(plan, sized[1]))} if sized else {}
            obs.close_span(tok, now - mark, labels=labels, round=self.ts,
                           **attrs)
            mark = now

    def _account(self, plan: RoundPlan) -> None:
        """Round counters, each the size of something the plan holds."""
        stats = plan.stats
        reads, writes = len(plan.sids), len(plan.write_slots)
        evictions = len(plan.evicted)
        forced = len(plan.dropped_reads)
        # Every fetched real: the misses, then the rest after the answer.
        stats.decryptions = reals = len(plan.missed) + len(plan.rest)
        stats.unique_real_reads = r = len(plan.dedup)
        stats.fake_real_reads = f_r = reals - r
        stats.fake_dummy_reads = f_d = reads - reals
        stats.server_reads = stats.server_deletes = reads
        stats.server_writes = len(plan.write_batch)
        stats.encryptions = writes
        stats.prf_evals = reads + writes
        stats.cache_ops += evictions
        # The paper's BST operations (what the cost model charges): two per
        # real selected (restamp + detach), one per dummy, forced read and
        # eviction.
        stats.index_ops = 2 * (r + f_r) - forced + f_d + evictions
        totals = self.totals
        totals.rounds += 1
        totals.requests += stats.requests
        totals.cache_hits += stats.cache_hits
        if self._keep_round_stats:
            totals.stats_by_round.append(stats)
        self._last_stats = stats

    # ------------------------------------------------------------------
    # Algorithm 1: the phases
    # ------------------------------------------------------------------
    def _serve_from_cache(self, plan: RoundPlan) -> None:
        """The request loop: answer what the cache holds, deduplicate the rest.

        Deviation from the pseudocode as printed: line 10 would enqueue a
        server fetch even for a write whose key is cached — but a cached
        key has no server copy (an object "either only resides in the cache
        or at the server", Challenge 4), so the fetch would fail;
        cache-hit writes are served purely locally.

        A run of consecutive READs probes the cache in one bulk call: it
        mutates nothing, so recency bumps still land hit-by-hit in request
        order.  WRITEs mutate the cache, stay scalar and end the run.
        """
        requests, req_slots, cache = plan.requests, plan.slots, self.cache
        cli_resp, dedup = plan.cli_resp, plan.dedup
        hits = ops = index = 0
        total = len(requests)
        while index < total:
            request = requests[index]
            if request.op is Operation.READ:
                run_end = index + 1
                while (run_end < total
                       and requests[run_end].op is Operation.READ):
                    run_end += 1
                run = requests[index:run_end]
                run_slots = req_slots[index:run_end]
                values = cache.get_if_present_many(run_slots, _MISS)
                for req, slot, value in zip(run, run_slots, values):
                    if value is not _MISS:
                        cli_resp[req.request_id] = value
                        hits += 1
                        ops += 1
                    else:
                        dedup.setdefault(slot, []).append(
                            (req.request_id, True))
                index = run_end
            else:  # WRITE
                slot = req_slots[index]
                if slot in cache:
                    hits += 1
                else:
                    dedup.setdefault(slot, []).append(
                        (request.request_id, False))
                cache.put(slot, request.value)
                ops += 1
                cli_resp[request.request_id] = request.value
                index += 1
        plan.stats.cache_hits = hits
        plan.stats.cache_ops = ops

    def _plan(self, plan: RoundPlan) -> None:
        """Read phase: choose the B objects this round reads — the ``r``
        deduplicated misses, ``f_D`` dummies and ``f_R = B - (r + f_D)``
        least-recently-accessed reals — and recall their ids ``prf(k,
        ts_k)``, remembered from when each was written, in one lookup."""
        cfg, ts, cache, slots = self.config, self.ts, self.cache, self._slots
        real_index, dummy_index = self._real_index, self._dummy_index
        inserts, deletes = self.mutations.drain(
            insert_limit=min(cfg.f_d, len(dummy_index)), delete_limit=cfg.f_r_min)
        self._serve_from_cache(plan)

        dedup = plan.dedup
        real_index.mark_cached_many(dedup, ts)

        # Deletes (§6.2): a cached key just goes, a server-resident one is
        # force-read below so its id leaves the server; a dummy born in the
        # key's slot replaces it.
        forced_reads: list[int] = []
        for key in deletes:
            slot = slots[key]
            if slot in dedup:
                # The key is being fetched for a client in this very round;
                # retry the delete next round to keep the response correct.
                self.mutations.enqueue_delete(key)
                continue
            del slots[key]
            if slot in cache:
                cache.remove(slot)
            else:
                forced_reads.append(slot)
            plan.newborn_dummies.append((slot, self._new_dummy_key()))

        # Fake queries on dummy objects (lines 20-23): the f_D least-
        # recently-read dummies leave the selection heap together.  The
        # first len(inserts) retire — read but not rewritten — and the
        # inserted keys, born in the cache, take over their slots.
        dummy_sel = dummy_index.take_min_keys(min(cfg.f_d, len(dummy_index)))
        if len(inserts) > len(dummy_sel):
            raise ProtocolError("insert queue exceeded available dummy reads")
        plan.inserted = dummy_sel[: len(inserts)]
        for slot, (key, value) in zip(plan.inserted, inserts):
            dummy_index.retire(slot)
            self._names[slot] = key
            slots[key] = slot
            real_index.set_timestamp(slot, ts)
            cache.put(slot, value)
        dummy_index.record_access_many(dummy_sel[len(inserts):], ts)
        plan.stats.cache_ops += len(inserts)

        # Fake queries on real objects (lines 24-28).  Forced deletes
        # consume fake-real slots first, taken from the end of the list.
        f_r = cfg.b - (len(dedup) + len(dummy_sel))
        if f_r < 0:
            raise ProtocolError("batch overflow: r + f_D exceeds B")
        forced_sel = [forced_reads.pop() for _ in range(min(len(forced_reads), f_r))]
        if forced_reads:
            raise ProtocolError("delete queue exceeded fake-real budget")
        for slot in forced_sel:
            real_index.mark_cached(slot)
        plan.dropped_reads.update(forced_sel)

        remaining = f_r - len(forced_sel)
        if remaining > real_index.server_resident_count:
            raise ProtocolError(
                "no server-resident real objects left for fake queries; "
                "N - C is too small for this configuration"
            )
        if cfg.fake_real_policy == "least_recent":
            fakes = real_index.pop_min_keys(remaining, ts)
        else:  # "uniform": the Challenge-2 ablation draws one rng value per
            fakes = []  # pick, so the selection stays scalar
            for _ in range(remaining):
                slot = real_index.random_resident_key(self._rng)
                real_index.mark_cached(slot)
                real_index.set_timestamp(slot, ts)
                fakes.append(slot)
        reads = [*dedup, *dummy_sel, *forced_sel, *fakes]
        plan.read_batch = dict(zip(self._recall_ids(reads), reads))

    def _read(self, plan: RoundPlan) -> None:
        """One pipelined read of the B ids, in sorted order.

        Deviation from the pseudocode: the "background thread" that deletes
        the ids just read ("deleting these objects has no security
        implications", §6.2) is the delete half of :meth:`_commit`, so a
        crash anywhere in the round leaves the server untouched by it — the
        property snapshot-based failover relies on.  The adversary still
        sees reads, then deletes, then writes, once per round.
        """
        read_batch = plan.read_batch
        plan.sids = sorted(read_batch)
        plan.read_slots = list(map(read_batch.__getitem__, plan.sids))
        plan.blobs = self.store.multi_get(plan.sids)

    def _decrypt(self, plan: RoundPlan) -> None:
        """Answer the deduplicated misses: one pass splits the fetched reals
        into the misses and the rest, one batched kernel pass decrypts the
        misses (at most R) and their requests get the values.

        The rest wait for :meth:`_decrypt_rest`, behind the answer; dummy
        blobs are noise and never opened.  A tampered blob a request asked
        for fails the round here, before any answer; one no request asked
        for fails it after, like any write-half failure.
        """
        dedup, is_dummy = plan.dedup, self._is_dummy
        missed_slots: list[int] = []
        missed_blobs, rest = [], plan.rest
        for slot, blob in zip(plan.read_slots, plan.blobs):
            if is_dummy[slot]:
                continue
            if slot in dedup:
                missed_slots.append(slot)
                missed_blobs.append(blob)
            else:
                rest.append(blob)
        plan.missed = self.keychain.cipher.decrypt_many(missed_blobs)
        cli_resp = plan.cli_resp
        for slot, value in zip(missed_slots, plan.missed):
            for request_id, need_resp in dedup[slot]:
                if need_resp:
                    cli_resp[request_id] = value

    def _decrypt_rest(self, plan: RoundPlan) -> None:
        """Write phase: the fetched reals no request missed on decrypt in
        one batched kernel pass, so their authentication is checked before
        they are cached or written back."""
        plan.rest = self.keychain.cipher.decrypt_many(plan.rest)

    def _cache_fetched(self, plan: RoundPlan) -> None:
        """Write phase: cache every fetched real object, plan the dummy
        rewrites.

        "The algorithm first evicts an object from the cache before adding
        a new object" (lines 37-41): interleaving eviction with insertion
        keeps the transient cache at C + R, never C + B.

        Crypto is deferred: the loop plans each write's slot, id timestamp
        and plaintext in emission order, ``None`` for a dummy's noise, and
        :meth:`_derive` and :meth:`_seal` make one pass each over them.
        Each dummy write steps the rng here (:meth:`_skip_dummy_payload`),
        in sid order, so its stream is the scalar algorithm's draw for
        draw.  A slot changes kind (inserts, deletes) only after the loop,
        so the loop sees each object as it was when read.

        Each eviction (:meth:`_evict_lru`) plans its write where it
        happens; the evicted slots become fake-query candidates again in
        one index call after the loop, in eviction order (equal timestamps
        select first in, first out).

        Small-cache regime: Algorithm 1 assumes ``C >= B - f_D + R``.  Below
        that (the paper's "re-write the objects fetched" fallback, §6.2) a
        write-miss key can be evicted before its fetched copy comes up here;
        the stale copy is discarded, not resurrected — the eviction already
        wrote the newer value, so the round still writes exactly ``B``.
        """
        cache, dummy_index, dedup = self.cache, self._dummy_index, plan.dedup
        room, evict_lru = cache.capacity - len(cache), self._evict_lru
        names, is_dummy, ts = self._names, self._is_dummy, self.ts
        dropped, evicted = plan.dropped_reads, plan.evicted
        slots, stamps, values = (plan.write_slots, plan.write_stamps,
                                 plan.write_values)
        missed, rest = iter(plan.missed), iter(plan.rest)
        kept = 0
        for slot in plan.read_slots:
            if is_dummy[slot]:
                if slot in dummy_index:  # else retired: an insert took it
                    # Recorded as read this round: the new id embeds ts.
                    self._skip_dummy_payload()
                    slots.append(slot)
                    stamps.append(ts)
                    values.append(None)
                continue
            if slot in dedup:
                value = next(missed)
            else:
                value = next(rest)
                if slot in dropped:
                    continue  # deleted key: fetched only to clear its id
            if slot in evicted:
                continue  # small-cache regime: the stale copy
            if not cache.touch_if_present(slot):
                # touch_if_present: a hit means the key was written this
                # batch and the cached value wins; recency still bumps.
                if room > 0:
                    room -= 1
                else:
                    evict_lru(plan)
                cache.put(slot, value)
            kept += 1
        self._real_index.mark_server_resident_many(evicted)
        for slot in plan.inserted:
            is_dummy[slot] = 0
        for slot, name in plan.newborn_dummies:
            names[slot] = name
            is_dummy[slot] = 1
            dummy_index.swap_in(slot, ts)
            self._skip_dummy_payload()
            slots.append(slot)
            stamps.append(ts)
            values.append(None)
        plan.stats.cache_ops += kept

    def _evict_lru(self, plan: RoundPlan) -> None:
        """The LRU entry goes back to the server under its *new* id
        ``prf(k, ts'_k)``: its write is planned here, in emission order,
        and the phase that evicted it files it as a fake-query candidate
        again, with the phase's other evictions, in one index call."""
        slot, value = self.cache.evict()
        plan.evicted[slot] = None
        plan.write_slots.append(slot)
        plan.write_stamps.append(self._real_index.timestamp(slot))
        plan.write_values.append(value)

    def _evict(self, plan: RoundPlan) -> None:
        """Drain the write-miss overage (the C + R transient) back to C, LRU
        first."""
        cache, evicted = self.cache, plan.evicted
        totals = self.totals
        totals.max_transient_cache = max(totals.max_transient_cache,
                                         len(cache))
        start = len(evicted)
        for _ in range(cache.over_capacity()):
            self._evict_lru(plan)
        self._real_index.mark_server_resident_many(
            islice(evicted, start, None))

    def _derive(self, plan: RoundPlan) -> None:
        """The write plan's new ids: one ``derive_many``, the round's only
        PRF call."""
        plan.write_ids = self._encode_ids(plan.write_slots, plan.write_stamps)

    def _seal(self, plan: RoundPlan) -> None:
        """One :meth:`_seal_values` pass over the write plan, paired with
        the new ids."""
        plan.write_batch = list(zip(plan.write_ids,
                                    self._seal_values(plan.write_values)))

    def _commit(self, plan: RoundPlan) -> None:
        """Delete the B ids read (each id is read at most once, Challenge 4)
        and write the B new ones, atomically.

        The round is handed to the store, not waited for: over
        :class:`~repro.net.client.RemoteStore` the server can apply round r
        behind this round's responses and the next round's planning, and
        its acknowledgement is collected no later than round r + 1's read —
        which raises, before sending anything, if the server refused.  The
        proxy never flushes, because clients lose nothing by it: a GET's
        value was authenticated when it was decrypted, and a PUT to a
        cached key was already acknowledged without touching the server
        (:meth:`_serve_from_cache`), so "a PUT is as durable as the next
        checkpoint" held before.  Whoever needs the stronger statement says
        so: :func:`repro.ha.checkpoint.capture_proxy` flushes first.  A
        caller answered by ``on_answer`` has its replies before this hand-over
        even starts; the argument is the same, since the values it got were
        authenticated or its own.  A failure here fails the proxy like any
        other past the round's start (:meth:`handle_batch`).
        """
        self.store.commit_round(plan.sids, plan.write_batch)
        self._dummy_index.end_round(self.ts)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def last_stats(self) -> RoundStats:
        return self._last_stats

    @property
    def real_count(self) -> int:
        """Current N (changes under inserts/deletes)."""
        return len(self._slots)

    @property
    def dummy_count(self) -> int:
        """Current D (changes under inserts/deletes)."""
        return len(self._dummy_index)

    def contains_key(self, key: str) -> bool:
        return key in self._slots

    def check_invariants(self) -> None:
        """The proxy's structural self-check; raises :class:`ProtocolError`
        naming the first breach.

        What §6.1 sets up and every committed round must preserve.  Safety
        code for tests and the chaos runner, valid between rounds; it costs
        one PRF call and one server probe per outsourced object, so the
        serving path never runs it.  A failed proxy is refused first.
        """
        self.refuse_after_failure()
        real_index, dummy_index, cache = self._real_index, self._dummy_index, self.cache
        real_index.check_invariants()
        dummy_index.check_invariants()
        names, slots, is_dummy = self._names, self._slots, self._is_dummy
        outsourced = self._outsourced()
        resident = len(outsourced) - len(dummy_index)
        pairs = self._prf_inputs(outsourced)
        sids = self.keychain.prf.derive_many(pairs)
        pending = self.mutations.pending_inserts
        breaches = {
            f"cache holds {len(cache)} > C={self.config.c}":
                len(cache) > self.config.c,
            "key table disagrees with the slots' names or kinds": [
                *(key for key, slot in slots.items()
                  if names[slot] != key or is_dummy[slot]),
                *(slot for slot, _ in dummy_index.items() if not is_dummy[slot])],
            "real keys not in exactly one of cache and server index":
                [key for key, slot in slots.items()
                 if real_index.is_server_resident(slot) == (slot in cache)],
            "cache holds keys the index does not know":
                len(cache) + resident != len(slots),
            f"server holds {len(self.store)} objects, not {resident} "
            f"resident reals + {len(dummy_index)} dummies (N + D - C)":
                len(self.store) != len(outsourced),
            f"timestamps beyond round {self.ts}":
                [key for key, slot in slots.items()
                 if real_index.timestamp(slot) > self.ts]
                + [name for name, ts in pairs[resident:] if ts > self.ts],
            "prf(key, timestamp) not on the server":
                [pair for sid, pair in zip(sids, pairs) if sid not in self.store],
            "remembered id is not prf(key, timestamp)":
                [pair for sid, held, pair in zip(sids, self._recall_ids(
                    [slot for slot, _ in outsourced]), pairs) if sid != held],
            f"{pending} pending inserts exceed the {len(dummy_index)} dummies left":
                pending > len(dummy_index),
        }
        raise_first_breach(breaches)


_LABELS = {"system": "waffle"}

#: Algorithm 1, run top to bottom by :meth:`WaffleProxy.handle_batch`.  Each
#: row: the span (and labels) the phase is timed under in the ``round`` span
#: tree, the phase, and the span attribute sized by a ``RoundPlan`` field.
#: Every response is known once the first half has run; ``on_answer`` fires
#: there, and the second half decrypts the unrequested reads, caches them and
#: writes the round back.
_PhaseTable = tuple[tuple[str, dict[str, str],
                          Callable[[WaffleProxy, RoundPlan], None],
                          tuple[str, str] | None], ...]
_ANSWER_PHASES: _PhaseTable = (
    ("phase.plan", _LABELS, WaffleProxy._plan, None),
    ("phase.server_io", {**_LABELS, "dir": "read"}, WaffleProxy._read,
     ("ids", "sids")),
    ("phase.decrypt", _LABELS, WaffleProxy._decrypt, ("values", "missed")),
)
_WRITE_PHASES: _PhaseTable = (
    ("phase.decrypt", {**_LABELS, "half": "write"}, WaffleProxy._decrypt_rest,
     ("values", "rest")),
    ("phase.cache", _LABELS, WaffleProxy._cache_fetched, None),
    ("phase.evict", _LABELS, WaffleProxy._evict, None),
    ("phase.derive", _LABELS, WaffleProxy._derive, ("writes", "write_ids")),
    ("phase.seal", _LABELS, WaffleProxy._seal, ("writes", "write_batch")),
    ("phase.server_io", {**_LABELS, "dir": "write"}, WaffleProxy._commit,
     ("ids", "write_batch")),
)
