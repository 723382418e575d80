"""Executing one chaos episode against the real system.

The runner deploys the full Waffle stack —

    WaffleProxy -> [test mutator] -> FaultyStorage -> RecordingStore
                -> RedisSim(write_once)

— wrapped in the episode's HA scheme, drives the episode's operation
script through it, and recovers from every injected fault the way a real
client-facing deployment would:

1. the failed batch's exception discards the (possibly mid-round,
   corrupted) primary;
2. the HA layer promotes the standby snapshot (synchronous shipping, so
   it is exactly the pre-batch state) attached to the same server;
3. mutations the client enqueued after that snapshot are re-submitted
   (they live in proxy memory until a batch drains them, so the
   snapshot cannot contain them — client retry is the recovery path);
4. the same request batch is retried verbatim.

Determinism makes step 4 byte-identical to the aborted attempt on the
adversary channel — the property the oracle's replay-prefix check pins.

Because every injected fault fires before the server applies anything
(see :mod:`repro.testing.faults`) and the proxy commits each round's
mutations atomically (``commit_round``), the server is always in the
pre-batch state when the retry starts; the retried round finds every id
it re-derives.

Alongside the real system the runner executes the episode against an
:class:`~repro.baselines.insecure.InsecureStore` *in request order* —
the differential model.  Every Waffle response must match it, within
batches (read-your-writes) and across failovers (durability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.uniformity import UniformityReport
from repro.baselines.insecure import InsecureStore
from repro.core.batch import ClientRequest
from repro.core.datastore import pad_value, unpad_value
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.errors import ProtocolError
from repro.ha.quorum import QuorumReplicatedProxy
from repro.ha.replicated import HighlyAvailableProxy
from repro.storage.base import StorageBackend
from repro.storage.memory import InMemoryStore
from repro.storage.recording import AccessRecord, RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.testing.episodes import Episode
from repro.testing.faults import FaultyStorage, InjectedFault
from repro.testing.oracle import (
    Attempt,
    Violation,
    check_batch_shape,
    check_replay_prefix,
    check_uniformity,
    collapse_trace,
)
from repro.workloads.trace import Operation
from repro.workloads.ycsb import key_name

__all__ = ["EpisodeResult", "run_episode"]

#: Optional storage mutator for self-tests: wraps the fault-injecting
#: store and may corrupt traffic (the mutation smoke test plants bugs
#: this way to prove the oracle catches them).
StoreWrapper = Callable[[StorageBackend], StorageBackend]


@dataclass(slots=True)
class EpisodeResult:
    """Everything one chaos run produced, for oracles and reports."""

    episode: Episode
    violations: list[Violation] = field(default_factory=list)
    rounds_committed: int = 0
    failovers: int = 0
    aborted_attempts: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    attempts: list[Attempt] = field(default_factory=list)
    collapsed_records: list[AccessRecord] = field(default_factory=list)
    report: UniformityReport | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _initial_items(episode: Episode) -> dict[str, bytes]:
    """The episode's deterministic initial dataset (plaintext values)."""
    return {
        key_name(i): f"init-{episode.seed}-{i}".encode()
        for i in range(episode.config["n"])
    }


def run_episode(episode: Episode,
                wrap_store: StoreWrapper | None = None) -> EpisodeResult:
    """Execute ``episode`` end to end and judge it against the oracle."""
    result = EpisodeResult(episode=episode)
    cfg = episode.build_config()
    value_size = cfg.value_size

    # ---- deploy the stack ------------------------------------------------
    server = RedisSim(write_once=True)
    recorder = RecordingStore(server)
    proxy = WaffleProxy(cfg, store=recorder,
                        keychain=KeyChain.from_seed(episode.seed),
                        log_ids=True)
    items = _initial_items(episode)
    proxy.initialize(
        {key: pad_value(value, value_size) for key, value in items.items()})
    init_end_seq = len(recorder.records)
    # Faults are spliced in only after initialization: the episode's
    # fault plan indexes steady-state operations, and the HA snapshot
    # below must capture a cleanly initialized proxy.
    chain: StorageBackend = FaultyStorage(recorder, episode.faults)
    faulty = chain
    if wrap_store is not None:
        chain = wrap_store(chain)
    proxy.store = chain

    if episode.ha_mode == "quorum":
        ha: HighlyAvailableProxy | QuorumReplicatedProxy = \
            QuorumReplicatedProxy(proxy, standbys=episode.standbys,
                                  quorum=episode.quorum)
    else:
        ha = HighlyAvailableProxy(proxy)

    # ---- the insecure differential model ---------------------------------
    baseline = InsecureStore(InMemoryStore(), items)

    #: Client-side mutations not yet drained by a committed batch.  The
    #: HA snapshot predates them, so after every failover the client
    #: (this runner) re-submits — standard retry semantics.
    outstanding: list[dict] = []
    inserts_total = 0
    deletes_total = 0
    batch_index = 0

    def fail_over() -> None:
        ha.fail_over()
        result.failovers += 1
        # Re-submit client mutations the promoted snapshot may predate.
        # Idempotent: a snapshot taken after the enqueue (e.g. shipped to
        # a standby restored mid-episode) already carries the mutation.
        mutations = ha.proxy.mutations
        for op in outstanding:
            if op["type"] == "insert":
                if not mutations.has_insert(op["key"]):
                    mutations.enqueue_insert(
                        op["key"],
                        pad_value(op["value"].encode(), value_size))
            elif not mutations.has_delete(op["key"]):
                mutations.enqueue_delete(op["key"])

    def run_batch(op: dict) -> bool:
        """One batch to commit, retrying through failovers.  False = abort."""
        nonlocal batch_index
        prepared = []
        for request in op["requests"]:
            if request[0] == "read":
                prepared.append(
                    ClientRequest(op=Operation.READ, key=request[1]))
            else:
                prepared.append(
                    ClientRequest(op=Operation.WRITE, key=request[1],
                                  value=pad_value(request[2].encode(),
                                                  value_size)))
        for attempt_index in range(episode.max_attempts):
            start_seq = len(recorder.records)
            try:
                responses = ha.handle_batch(prepared)
            except InjectedFault as error:
                result.attempts.append(Attempt(
                    batch_index, attempt_index, start_seq,
                    len(recorder.records), ok=False,
                    error=type(error).__name__))
                result.aborted_attempts += 1
                fail_over()
                continue
            except Exception as error:  # noqa: BLE001 - the whole point
                result.violations.append(Violation(
                    "crash",
                    f"batch {batch_index} raised non-injected "
                    f"{type(error).__name__}: {error}"))
                return False
            result.attempts.append(Attempt(
                batch_index, attempt_index, start_seq,
                len(recorder.records), ok=True))
            result.rounds_committed += 1
            # The proxy's own structural self-check, after every commit.
            try:
                ha.proxy.check_invariants()
            except ProtocolError as error:
                result.violations.append(Violation(
                    "invariant", f"after batch {batch_index}: {error}"))
            # Differential check, in request order (read-your-writes).
            by_id = {resp.request_id: resp for resp in responses}
            for request, spec in zip(prepared, op["requests"]):
                if spec[0] == "write":
                    baseline.put(request.key, spec[2].encode())
                    expected = spec[2].encode()
                else:
                    expected = baseline.get(request.key)
                got = unpad_value(by_id[request.request_id].value)
                if got != expected:
                    result.violations.append(Violation(
                        "semantics",
                        f"batch {batch_index} {spec[0]} of "
                        f"{request.key!r} returned {got!r}, expected "
                        f"{expected!r}"))
            # A committed batch drains every pending mutation (the chaos
            # generator keeps at most one of each kind in flight, within
            # the per-round drain budget); stragglers the proxy deferred
            # internally now live in its snapshotted queue.
            outstanding.clear()
            batch_index += 1
            return True
        result.violations.append(Violation(
            "unrecoverable",
            f"batch {batch_index} still failing after "
            f"{episode.max_attempts} attempts"))
        return False

    # ---- drive the script ------------------------------------------------
    aborted = False
    for op in episode.ops:
        kind = op["type"]
        try:
            if kind == "batch":
                if not run_batch(op):
                    aborted = True
                    break
            elif kind == "crash":
                fail_over()
            elif kind == "fail_standby":
                ha.fail_standby(op["standby"])
            elif kind == "restore_standby":
                ha.restore_standby(op["standby"])
            elif kind == "insert":
                ha.proxy.mutations.enqueue_insert(
                    op["key"], pad_value(op["value"].encode(), value_size))
                baseline.put(op["key"], op["value"].encode())
                outstanding.append(op)
                inserts_total += 1
            elif kind == "delete":
                ha.proxy.mutations.enqueue_delete(op["key"])
                baseline.delete(op["key"])
                outstanding.append(op)
                deletes_total += 1
            else:
                raise ProtocolError(f"unknown episode op {kind!r}")
        except InjectedFault:  # pragma: no cover - only batches see faults
            raise
        except Exception as error:  # noqa: BLE001
            result.violations.append(Violation(
                "crash",
                f"op {kind!r} raised {type(error).__name__}: {error}"))
            aborted = True
            break

    # ---- judge -----------------------------------------------------------
    records = recorder.records
    result.violations.extend(check_replay_prefix(records, result.attempts))
    result.collapsed_records = collapse_trace(records, result.attempts,
                                              init_end_seq)
    result.violations.extend(
        check_batch_shape(result.collapsed_records, cfg.b))
    if not aborted:
        uniformity_violations, report = check_uniformity(
            result.collapsed_records, ha.proxy.id_log, cfg,
            inserts_total=inserts_total, deletes_total=deletes_total)
        result.violations.extend(uniformity_violations)
        result.report = report
    result.faults_injected = dict(faulty.injected)
    return result
