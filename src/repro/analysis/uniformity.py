"""Measuring α,β-uniformity (Definition 1) from a recorded trace.

Units
-----
The paper states the bounds in *batched* server accesses (§5.1); Waffle's
proxy performs one read batch and one write batch per round, so we measure
in **rounds**:

* ``α_obs(id) = read_round(id) − write_round(id) − 1`` — rounds strictly
  between an id's write and its read.  A write in round *i* read in round
  *i+1* (the soonest possible: the write phase follows the read phase)
  scores 0, matching the paper's "the lower bound for α is 0 because an
  object written in one round can be accessed in the next round".
  Theorem 7.1 then guarantees ``max α_obs ≤ α``.
* ``β_obs(key) = write_round − read_round`` for consecutive read→write of
  the *same plaintext key* (different storage ids — the adversary cannot
  see β, §8.3.1; measuring it needs the proxy's ``id_log``).
  Theorem 7.2 guarantees ``min β_obs ≥ β``.

α is adversary-observable because between an id's write and read the id
itself does not change; β is only measurable with plaintext ground truth,
exactly as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.storage.recording import AccessRecord

__all__ = [
    "UniformityReport",
    "measure_alpha",
    "measure_beta",
    "verify_storage_invariants",
]


@dataclass
class UniformityReport:
    """Observed α/β statistics of one recorded run."""

    alphas: list[int] = field(default_factory=list)
    betas: list[int] = field(default_factory=list)
    #: ids written but never read by the end of the run (the paper's low
    #: security configuration leaves many of these, §8.3.1).
    unread_ids: int = 0

    @property
    def max_alpha(self) -> int | None:
        return max(self.alphas) if self.alphas else None

    @property
    def min_beta(self) -> int | None:
        return min(self.betas) if self.betas else None

    def satisfies(self, alpha_bound: int, beta_bound: int) -> bool:
        """Check Theorem 7.3: all observations within the bounds."""
        alpha_ok = self.max_alpha is None or self.max_alpha <= alpha_bound
        beta_ok = self.min_beta is None or self.min_beta >= beta_bound
        return alpha_ok and beta_ok


def infer_rounds(records: list[AccessRecord]) -> list[AccessRecord]:
    """Re-annotate a trace with batch rounds inferred from its structure.

    A remote (server-side) observer has no round markers, but Waffle's
    round structure is plainly visible: each round is a burst of reads,
    then deletes, then writes.  A new round starts at each read that
    follows a non-read — exactly the inference a passive persistent
    adversary performs.  Returns a new list with ``round`` rewritten.
    """
    out: list[AccessRecord] = []
    round_index = 0
    previous: str | None = None
    for record in records:
        if record.op == "read" and previous not in (None, "read"):
            round_index += 1
        out.append(AccessRecord(record.op, record.storage_id,
                                round_index, record.seq))
        previous = record.op
    return out


def verify_storage_invariants(records: list[AccessRecord]) -> None:
    """Assert the write-once/read-once/delete-after-read id lifecycle.

    Every storage id Waffle's server ever sees must be written exactly
    once, then read at most once, then (optionally) deleted — the
    Challenge 4 mechanism.  Raises :class:`ProtocolError` on violation.
    """
    state: dict[str, str] = {}
    for record in records:
        current = state.get(record.storage_id)
        if record.op == "write":
            if current is not None:
                raise ProtocolError(
                    f"id {record.storage_id} written twice (seq {record.seq})"
                )
            state[record.storage_id] = "written"
        elif record.op == "read":
            if current != "written":
                raise ProtocolError(
                    f"id {record.storage_id} read in state {current!r} "
                    f"(seq {record.seq})"
                )
            state[record.storage_id] = "read"
        elif record.op == "delete":
            if current != "read":
                raise ProtocolError(
                    f"id {record.storage_id} deleted in state {current!r} "
                    f"(seq {record.seq})"
                )
            state[record.storage_id] = "deleted"
        else:  # pragma: no cover - recorder only emits these three
            raise ProtocolError(f"unknown op {record.op!r}")


def measure_alpha(records: list[AccessRecord]) -> UniformityReport:
    """Adversary-side α measurement over every storage id in the trace."""
    report = UniformityReport()
    write_round: dict[str, int] = {}
    for record in records:
        if record.op == "write":
            write_round[record.storage_id] = record.round
        elif record.op == "read":
            if record.storage_id in write_round:
                born = write_round.pop(record.storage_id)
                report.alphas.append(record.round - born - 1)
    report.unread_ids = len(write_round)
    return report


def measure_beta(records: list[AccessRecord],
                 id_log: dict[str, str]) -> list[int]:
    """System-side β measurement: read→next-write gaps per plaintext key.

    ``id_log`` maps storage ids to plaintext keys (``WaffleProxy.id_log``).
    Dummy objects (keys starting with a NUL) are excluded — "to bound
    writes after reads, we do not need to care about dummy keys"
    (Theorem 7.2 proof).
    """
    betas: list[int] = []
    last_read_round: dict[str, int] = {}
    for record in records:
        key = id_log.get(record.storage_id)
        if key is None:
            raise ProtocolError(f"untracked storage id {record.storage_id}")
        if key.startswith("\x00"):
            continue
        if record.op == "read":
            last_read_round[key] = record.round
        elif record.op == "write" and key in last_read_round:
            betas.append(record.round - last_read_round.pop(key))
    return betas


def full_report(records: list[AccessRecord], id_log: dict[str, str] | None = None,
                ) -> UniformityReport:
    """α measurement plus β when id provenance is available."""
    report = measure_alpha(records)
    if id_log is not None:
        report.betas = measure_beta(records, id_log)
    return report
