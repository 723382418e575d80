"""The differential oracle: what a chaos episode must satisfy.

A chaos run produces three artifacts — the client-visible responses, the
adversary-visible trace (:class:`~repro.storage.recording.AccessRecord`
list) and the per-attempt bookkeeping (:class:`Attempt`) — and this
module turns them into pass/fail judgments:

* **KV semantics** — the runner compares every response against an
  insecure in-order model as it executes (read-your-writes within a
  batch, durability across failovers); mismatches arrive here as
  ``semantics`` violations.
* **Replay-prefix obliviousness** — a proxy that fails over mid-round
  replays the round deterministically, so everything the adversary saw
  of an aborted attempt must be an exact ``(op, storage_id)`` prefix of
  the successful retry (:func:`check_replay_prefix`).  A retry therefore
  reveals only *that* a failure occurred — never *which objects* beyond
  what the round would have leaked anyway.
* **Constant batch composition** — every committed round is exactly B
  reads of B distinct ids, the deletion of those same ids in the same
  order, then exactly B writes (:func:`check_batch_shape`); fake-real
  and fake-dummy padding survives adversity.
* **Id lifecycle and α/β uniformity** — on the *collapsed* trace
  (:func:`collapse_trace`: aborted attempts dropped, committed rounds
  renumbered) the write-once/read-once/delete-after-read lifecycle must
  hold and the observed α/β must respect Theorems 7.1/7.2 under the
  episode's worst-case N and D (mutations move both).

The collapse step encodes the security argument precisely: an aborted
attempt's reads are re-issued verbatim by the retry (checked by the
prefix invariant), so the adversary's extra knowledge from the failure
is the duplicate read burst itself — the same ids, not new ones.  The
uniformity guarantees are stated over committed rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.adversary import Adversary
from repro.core.config import WaffleConfig
from repro.storage.recording import AccessRecord

__all__ = [
    "Attempt",
    "Violation",
    "check_batch_shape",
    "check_replay_prefix",
    "check_timing_channel",
    "check_uniformity",
    "collapse_trace",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach found by the oracle.

    ``kind`` is one of: ``semantics`` (response differs from the
    insecure model), ``crash`` (a non-injected exception escaped),
    ``unrecoverable`` (retries exhausted), ``replay`` (aborted attempt
    not a prefix of its retry), ``shape`` (batch composition broken),
    ``lifecycle`` (write-once/read-once violated), ``alpha`` / ``beta``
    (uniformity bound exceeded), ``timing`` (shaped round schedule
    leaks as much as — or more than — the on-fill schedule),
    ``invariant`` (``WaffleProxy.check_invariants`` failed after a
    committed batch).
    """

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.detail}"


@dataclass(slots=True)
class Attempt:
    """One execution attempt of one episode batch.

    ``start_seq``/``end_seq`` delimit the attempt's records in the
    recorder (``records[start_seq:end_seq]``); the recorder's seq
    counter is append-only, so slices never shift.
    """

    batch_index: int
    attempt_index: int
    start_seq: int
    end_seq: int
    ok: bool
    error: str | None = None


def check_replay_prefix(records: list[AccessRecord],
                        attempts: list[Attempt]) -> list[Violation]:
    """Every aborted attempt must be a prefix of its batch's commit.

    Deterministic replay from the pre-batch snapshot re-derives the same
    storage ids in the same order, and all fault points fire before the
    server applies anything — so whatever the adversary observed of a
    failed attempt is re-observed, verbatim, at the start of the attempt
    that finally commits.  Batches that never committed (the episode
    aborted) are skipped; the runner reports those separately.
    """
    violations: list[Violation] = []
    committed: dict[int, Attempt] = {
        a.batch_index: a for a in attempts if a.ok
    }
    for attempt in attempts:
        if attempt.ok:
            continue
        winner = committed.get(attempt.batch_index)
        if winner is None:
            continue
        aborted = records[attempt.start_seq:attempt.end_seq]
        final = records[winner.start_seq:winner.end_seq]
        if len(aborted) > len(final):
            violations.append(Violation(
                "replay",
                f"batch {attempt.batch_index} attempt "
                f"{attempt.attempt_index} recorded {len(aborted)} accesses, "
                f"more than the committed attempt's {len(final)}"))
            continue
        for position, (a, b) in enumerate(zip(aborted, final)):
            if (a.op, a.storage_id) != (b.op, b.storage_id):
                violations.append(Violation(
                    "replay",
                    f"batch {attempt.batch_index} attempt "
                    f"{attempt.attempt_index} diverges from its replay at "
                    f"access {position}: {(a.op, a.storage_id)} != "
                    f"{(b.op, b.storage_id)}"))
                break
    return violations


def collapse_trace(records: list[AccessRecord], attempts: list[Attempt],
                   init_end_seq: int) -> list[AccessRecord]:
    """The trace of the run *as if* no attempt had ever failed.

    Keeps the initialization bulk-load (round 0) and each batch's
    committed attempt, renumbered to consecutive rounds in batch order
    with a fresh seq.  This is the trace the uniformity theorems govern;
    aborted attempts contribute nothing beyond what the prefix check
    already pinned to it.
    """
    collapsed = [
        AccessRecord(r.op, r.storage_id, 0, seq)
        for seq, r in enumerate(records[:init_end_seq])
    ]
    committed = sorted((a for a in attempts if a.ok),
                       key=lambda a: a.batch_index)
    seq = len(collapsed)
    for round_index, attempt in enumerate(committed, start=1):
        for record in records[attempt.start_seq:attempt.end_seq]:
            collapsed.append(
                AccessRecord(record.op, record.storage_id, round_index, seq))
            seq += 1
    return collapsed


def check_batch_shape(collapsed: list[AccessRecord],
                      b: int) -> list[Violation]:
    """Each committed round: B reads, the same B ids deleted, B writes.

    This is Waffle's constant batch composition — the property that
    makes every round look identical to the adversary regardless of the
    real/fake mix, the mutation traffic, or how many retries preceded
    the commit.
    """
    violations: list[Violation] = []
    rounds: dict[int, list[AccessRecord]] = {}
    for record in collapsed:
        if record.round > 0:
            rounds.setdefault(record.round, []).append(record)
    for round_index in sorted(rounds):
        burst = rounds[round_index]
        ops = "".join(record.op[0] for record in burst)  # r/d/w string
        expected = "r" * b + "d" * b + "w" * b
        if ops != expected:
            violations.append(Violation(
                "shape",
                f"round {round_index} access pattern "
                f"{_summarize_ops(ops)} != {b}r {b}d {b}w"))
            continue
        read_ids = [record.storage_id for record in burst[:b]]
        delete_ids = [record.storage_id for record in burst[b:2 * b]]
        if read_ids != delete_ids:
            violations.append(Violation(
                "shape",
                f"round {round_index} deletes differ from its reads"))
        if len(set(read_ids)) != b:
            violations.append(Violation(
                "shape", f"round {round_index} re-read a storage id"))
    return violations


def _summarize_ops(ops: str) -> str:
    """Run-length encode an r/d/w op string for readable violations."""
    if not ops:
        return "(empty)"
    parts: list[str] = []
    current, count = ops[0], 0
    for op in ops:
        if op == current:
            count += 1
        else:
            parts.append(f"{count}{current}")
            current, count = op, 1
    parts.append(f"{count}{current}")
    return " ".join(parts)


def check_uniformity(collapsed: list[AccessRecord],
                     id_log: dict[str, str] | None,
                     config: WaffleConfig,
                     inserts_total: int = 0,
                     deletes_total: int = 0,
                     ) -> tuple[list[Violation], Adversary]:
    """Lifecycle plus α/β bounds on the collapsed trace.

    Mutations move the bounds: inserts grow N, deletes grow D.  The
    bounds are evaluated at the episode's worst case (initial N plus
    every insert, initial D plus every delete) — conservative, since α
    grows monotonically in both.
    """
    violations: list[Violation] = []
    adversary = Adversary(id_log).feed(collapsed)
    if adversary.violation is not None:
        violations.append(Violation("lifecycle", adversary.violation))
        return violations, adversary
    bounds_cfg = replace(config, n=config.n + inserts_total,
                         d=config.d + deletes_total)
    alpha_bound = bounds_cfg.alpha_bound_effective()
    beta_bound = bounds_cfg.beta_bound()
    if adversary.max_alpha is not None and adversary.max_alpha > alpha_bound:
        violations.append(Violation(
            "alpha",
            f"observed max alpha {adversary.max_alpha} exceeds bound "
            f"{alpha_bound}"))
    if adversary.min_beta is not None and adversary.min_beta < beta_bound:
        violations.append(Violation(
            "beta",
            f"observed min beta {adversary.min_beta} below bound "
            f"{beta_bound}"))
    return violations, adversary


def check_timing_channel(benchmark: dict,
                         max_shaped_score: float = 0.35) -> list[Violation]:
    """The timing-side-channel property over a benchmark report.

    Takes the output of
    :func:`repro.analysis.timing.timing_attack_benchmark` and asserts
    what round-schedule shaping must deliver: the fixed-interval
    schedule leaks strictly less than the on-fill schedule, and its
    absolute leakage score stays under ``max_shaped_score`` (the
    attacks' residual noise floor — a shaped schedule that still hands
    the adversary a third of the signal is not shaped).
    """
    violations: list[Violation] = []
    on_fill = benchmark["on_fill"]["leakage_score"]
    fixed = benchmark["fixed"]["leakage_score"]
    if fixed >= on_fill:
        violations.append(Violation(
            "timing",
            f"shaped schedule leaks {fixed:.3f} >= on-fill {on_fill:.3f} "
            f"(seed {benchmark.get('seed')})"))
    if fixed > max_shaped_score:
        violations.append(Violation(
            "timing",
            f"shaped schedule leakage {fixed:.3f} exceeds the "
            f"{max_shaped_score} noise ceiling (seed "
            f"{benchmark.get('seed')})"))
    return violations
