"""Executing one chaos episode against the real system.

The runner deploys the full Waffle stack —

    WaffleDatastore: WaffleProxy -> [test mutator] -> FaultyStorage
                     -> RecordingStore -> RedisSim(write_once)

— wrapped in a :class:`~repro.ha.replicated.ReplicatedProxy` group of
the episode's ``standbys``, drives the episode's operation script
through it unpadded, as a client would, and recovers from every injected
fault the way a real client-facing deployment would:

1. the failed batch's exception discards the (possibly mid-round,
   corrupted) primary, and the storage connection is re-opened (a
   dropped one stays down until then);
2. the HA layer promotes a standby snapshot (synchronous shipping, so
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

:func:`deploy`, :func:`retry_round` and :func:`judge` are the steps
this runner shares with the serving runner (:mod:`repro.testing.serving`):
the same stack under the same fault wrapper, steps 1–4 above plus the
proxy's ``check_invariants()`` after every commit, and the same oracle
over its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.analysis.adversary import Adversary
from repro.baselines.insecure import InsecureStore
from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import ProtocolError
from repro.ha.replicated import ReplicatedProxy
from repro.storage.base import StorageBackend
from repro.storage.recording import AccessRecord
from repro.storage.redis_sim import RedisSim
from repro.testing.episodes import Episode
from repro.testing.faults import FaultPlan, FaultyStorage, InjectedFault
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

__all__ = ["Deployment", "EpisodeResult", "RoundLog", "deploy", "judge",
           "retry_round", "run_episode"]

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
    adversary: Adversary | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(slots=True)
class Deployment:
    """One chaos run's system under test and its differential model."""

    #: Proxy, recorder (the adversary's eye) and write-once server.
    datastore: WaffleDatastore
    #: The proxy's store: the fault wrapper over the datastore's recorder.
    faulty: FaultyStorage
    #: The plaintext model, holding the initial items.
    baseline: InsecureStore
    #: Records up to here are the initial load.
    init_end_seq: int

    @property
    def records(self) -> list[AccessRecord]:
        """What the server has seen, load included."""
        assert self.datastore.recorder is not None
        return self.datastore.recorder.records


def deploy(config: WaffleConfig, seed: int, items: dict[str, bytes],
           plan: FaultPlan) -> Deployment:
    """A recorded :class:`WaffleDatastore` loaded with ``items``, its
    proxy's store then wrapped in ``FaultyStorage``.

    The fault wrapper is spliced in only after the load, above the
    recorder: a plan indexes steady-state operations, an HA snapshot of
    the proxy must capture a cleanly initialized one, and a faulted
    operation must never reach the adversary's record.
    """
    datastore = WaffleDatastore(config, items,
                                keychain=KeyChain.from_seed(seed),
                                log_ids=True)
    recorder = datastore.recorder
    assert recorder is not None
    faulty = FaultyStorage(recorder, plan)
    datastore.proxy.store = faulty
    return Deployment(datastore, faulty, InsecureStore(RedisSim(), items),
                      len(recorder.records))


class RoundLog(Protocol):
    """The tallies :func:`retry_round` keeps; both runners' results."""

    violations: list[Violation]
    rounds_committed: int
    failovers: int
    aborted_attempts: int
    attempts: list[Attempt]


def fail_over(deployment: Deployment, ha: ReplicatedProxy, log: RoundLog,
              resubmit: Callable[[], None] | None = None) -> None:
    """Steps 1–3: reconnect, promote a standby, re-submit mutations."""
    deployment.faulty.reconnect()
    ha.fail_over()
    log.failovers += 1
    if resubmit is not None:
        resubmit()


def retry_round(deployment: Deployment, ha: ReplicatedProxy, log: RoundLog,
                requests: list[ClientRequest], batch_index: int,
                max_attempts: int,
                resubmit: Callable[[], None] | None = None,
                ) -> list[ClientResponse] | None:
    """One round to commit, retried verbatim through :func:`fail_over`.

    Every attempt is logged as an :class:`Attempt`; after the commit the
    proxy's structural self-check runs and a breach is logged as an
    ``invariant`` violation.  Returns the committed responses, or None
    once ``max_attempts`` attempts all failed (the caller decides what
    exhaustion means).  A non-injected exception propagates.
    """
    records = deployment.records
    for attempt_index in range(max_attempts):
        start_seq = len(records)
        try:
            responses = ha.execute_batch(requests)
        except InjectedFault as error:
            log.attempts.append(Attempt(
                batch_index, attempt_index, start_seq,
                len(records), ok=False,
                error=type(error).__name__))
            log.aborted_attempts += 1
            fail_over(deployment, ha, log, resubmit)
            continue
        log.attempts.append(Attempt(
            batch_index, attempt_index, start_seq,
            len(records), ok=True))
        log.rounds_committed += 1
        try:
            ha.proxy.check_invariants()
        except ProtocolError as error:
            log.violations.append(Violation(
                "invariant", f"after batch {batch_index}: {error}"))
        return responses
    return None


def judge(deployment: Deployment, attempts: list[Attempt],
          config: WaffleConfig, id_log: dict[str, str] | None,
          uniformity: bool = True, inserts_total: int = 0,
          deletes_total: int = 0,
          ) -> tuple[list[Violation], list[AccessRecord],
                     Adversary | None]:
    """The oracle over one run's trace: replay prefixes, the collapsed
    trace's batch shape and, when ``uniformity``, its lifecycle and α/β
    (the insert / delete totals move the bounds).

    Returns the violations, the collapsed trace and the adversary that
    read it (``None`` without ``uniformity``).
    """
    records = deployment.records
    violations = check_replay_prefix(records, attempts)
    collapsed = collapse_trace(records, attempts, deployment.init_end_seq)
    violations.extend(check_batch_shape(collapsed, config.b))
    adversary = None
    if uniformity:
        found, adversary = check_uniformity(collapsed, id_log, config,
                                            inserts_total, deletes_total)
        violations.extend(found)
    return violations, collapsed, adversary


def run_episode(episode: Episode,
                wrap_store: StoreWrapper | None = None) -> EpisodeResult:
    """Execute ``episode`` end to end and judge it against the oracle."""
    result = EpisodeResult(episode=episode)
    cfg = episode.build_config()

    # ---- deploy the stack ------------------------------------------------
    items = {key_name(i): f"init-{episode.seed}-{i}".encode()
             for i in range(cfg.n)}
    deployment = deploy(cfg, episode.seed, items, episode.faults)
    datastore, baseline = deployment.datastore, deployment.baseline
    if wrap_store is not None:
        datastore.proxy.store = wrap_store(datastore.proxy.store)
    ha = ReplicatedProxy(datastore, standbys=episode.standbys,
                         quorum=episode.quorum)

    #: Client-side mutations not yet drained by a committed batch.  The
    #: HA snapshot predates them, so after every failover the client
    #: (this runner) re-submits — standard retry semantics.
    outstanding: list[dict] = []
    inserts_total = 0
    deletes_total = 0
    batch_index = 0

    def resubmit() -> None:
        """Re-submit client mutations the promoted snapshot may predate.

        Idempotent: a snapshot taken after the enqueue (e.g. shipped to a
        standby restored mid-episode) already carries the mutation.
        """
        mutations = ha.proxy.mutations
        for op in outstanding:
            if op["type"] == "insert":
                if not mutations.has_insert(op["key"]):
                    datastore.insert(op["key"], op["value"].encode())
            elif not mutations.has_delete(op["key"]):
                datastore.delete(op["key"])

    def run_batch(op: dict) -> bool:
        """One batch to commit through :func:`retry_round`.  False = abort."""
        nonlocal batch_index
        prepared = [
            ClientRequest(op=Operation.READ, key=request[1])
            if request[0] == "read" else
            ClientRequest(op=Operation.WRITE, key=request[1],
                          value=request[2].encode())
            for request in op["requests"]]
        responses = retry_round(deployment, ha, result, prepared,
                                batch_index, episode.max_attempts, resubmit)
        if responses is None:
            result.violations.append(Violation(
                "unrecoverable",
                f"batch {batch_index} still failing after "
                f"{episode.max_attempts} attempts"))
            return False
        # Differential check, in request order (read-your-writes).
        by_id = {resp.request_id: resp for resp in responses}
        for request, spec in zip(prepared, op["requests"]):
            if spec[0] == "write":
                baseline.put(request.key, spec[2].encode())
                expected = spec[2].encode()
            else:
                expected = baseline.get(request.key)
            got = by_id[request.request_id].value
            if got != expected:
                result.violations.append(Violation(
                    "semantics",
                    f"batch {batch_index} {spec[0]} of "
                    f"{request.key!r} returned {got!r}, expected "
                    f"{expected!r}"))
        # A committed batch drains every pending mutation (the chaos
        # generator keeps at most one of each kind in flight, within the
        # per-round drain budget); stragglers the proxy deferred
        # internally now live in its snapshotted queue.
        outstanding.clear()
        batch_index += 1
        return True

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
                fail_over(deployment, ha, result, resubmit)
            elif kind == "fail_standby":
                ha.fail_standby(op["standby"])
            elif kind == "restore_standby":
                ha.restore_standby(op["standby"])
            elif kind == "insert":
                datastore.insert(op["key"], op["value"].encode())
                baseline.put(op["key"], op["value"].encode())
                outstanding.append(op)
                inserts_total += 1
            elif kind == "delete":
                datastore.delete(op["key"])
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
    violations, result.collapsed_records, result.adversary = judge(
        deployment, result.attempts, cfg, ha.proxy.id_log,
        uniformity=not aborted, inserts_total=inserts_total,
        deletes_total=deletes_total)
    result.violations.extend(violations)
    result.faults_injected = dict(deployment.faulty.injected)
    return result
