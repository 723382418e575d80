"""The storage server's view, taken one access at a time.

Waffle's guarantee is a property of what the server sees (Definition 1,
Theorems 7.1/7.2), and §8.4 asks a deployment to keep measuring it.
:class:`Adversary` is that measurement: it consumes storage accesses one
at a time — from a recorded trace (:meth:`Adversary.feed`), from a
tracer's ``storage.access`` events (:meth:`Adversary.attach`), or from
anything else that can name ``(op, storage_id, round)`` — and answers
every security reading the package makes:

* **α** (Definition 1), in rounds: ``α(id) = read_round − write_round −
  1``, the rounds strictly between an id's write and its read.  A write
  in round *i* read in round *i+1* scores 0, the paper's lower bound.
  Theorem 7.1 guarantees ``max α ≤ α_bound``.  Kept as a histogram, a
  count of ids written and not yet read, and per-window reports against
  an α budget (the dashboard's panel).
* **β**, given id provenance (``WaffleProxy.id_log``): for consecutive
  read → write of the *same plaintext key*, ``write_round − read_round``.
  Dummy keys (a NUL first character) are skipped, as Theorem 7.2's proof
  does.  Theorem 7.2 guarantees ``min β ≥ β_bound``.
* **The id lifecycle**: every id is written once, then read at most
  once, then (optionally) deleted — the Challenge 4 mechanism.
* **Round shape**: reads, deletes and writes per round and their
  coefficient of variation (Waffle's are all 0).
* **Per-id read counts**, behind the entropy, KL and χ² readings of
  :meth:`Adversary.leakage`.
* **Round-release instants**: the arrival instant of each round's first
  access, when accesses carry one — what the timing attacks of
  :mod:`repro.analysis.timing` consume.

Rounds are the paper's batched accesses (§5.1).  A server with no round
markers (a recorder behind a ``StorageServer``) is read with
``infer_rounds=True``: a read that follows a non-read starts a round,
exactly the inference a passive persistent adversary performs on
Waffle's read → delete → write bursts.

Memory.  The α, β and timing state is O(ids outstanding): written and
not yet read, or keys read and not yet re-written.  Two readings cost
more, and the safety check is kept whole rather than weakened: the
lifecycle check remembers every id it has ever seen (one dict entry per
id, so that a re-write of a deleted id is still caught), and the per-id
read counts behind :meth:`leakage` keep one entry per id read at or
after ``from_round``.  Round shape and release instants keep one entry
per round.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError, ProtocolError

if TYPE_CHECKING:
    from repro.obs.trace import Tracer
    from repro.storage.recording import AccessRecord

__all__ = ["Adversary", "LeakageSummary", "WindowReport", "chi_square_sf"]

#: The lifecycle state each op requires, and the state it leaves.
_LIFECYCLE = {"write": (None, "written"), "read": ("written", "read"),
              "delete": ("read", "deleted")}


@dataclass(frozen=True, slots=True)
class WindowReport:
    """α over one completed window of ``window_rounds`` rounds."""

    window_start_round: int
    window_end_round: int
    max_alpha: int | None
    samples: int
    outstanding_ids: int
    oldest_outstanding_age: int
    budget_breached: bool


@dataclass(frozen=True, slots=True)
class LeakageSummary:
    """An auditing adversary's first-pass statistics, side by side."""

    #: Shannon entropy of per-id read counts over its maximum (1.0: flat).
    normalized_entropy: float
    #: KL(observed per-id read frequency || uniform), in bits.
    kl_divergence_bits: float
    #: χ² goodness-of-fit p-value of per-id read counts against uniform.
    chi_square_p: float
    read_cv: float
    write_cv: float


class Adversary:
    """Streams server accesses; answers α, β, lifecycle, shape and timing.

    Parameters
    ----------
    id_log:
        Storage id → plaintext key (``WaffleProxy.id_log``), for β.  An
        access to an id it does not name raises :class:`ProtocolError`.
    infer_rounds:
        Number rounds from the burst structure and ignore the round each
        access carries.
    from_round:
        Accesses before this round count for α, β and the lifecycle but
        not for the per-id read counts or the round shape (round 0 is
        the initial load).
    alpha_budget, window_rounds:
        The α the operator wants never exceeded, and the rounds per
        reporting window.  A window breaches when an α inside it, or
        the age of an id still unread at its end, passes the budget.
    """

    def __init__(self, id_log: Mapping[str, str] | None = None, *,
                 infer_rounds: bool = False, from_round: int = 0,
                 alpha_budget: int | None = None,
                 window_rounds: int = 100) -> None:
        if (alpha_budget is not None and alpha_budget < 0) \
                or window_rounds < 1:
            raise ConfigurationError("invalid adversary parameters")
        self.id_log = id_log
        self.infer_rounds = infer_rounds
        self.from_round = from_round
        self.alpha_budget = alpha_budget
        self.window_rounds = window_rounds
        self.accesses = 0
        self.alpha_histogram: Counter[int] = Counter()
        self.beta_histogram: Counter[int] = Counter()
        #: The first lifecycle breach seen, if any.
        self.violation: str | None = None
        self.release_times: list[float] = []
        self.breaches = 0
        self._round: int | None = None
        self._last_op: str | None = None
        self._born: dict[str, int] = {}
        self._lifecycle: dict[str, str] = {}
        self._last_read: dict[str, int] = {}
        self._reads: dict[str, int] = {}
        self._shape: dict[int, list[int]] = {}
        self._window_start = 0
        self._window_alphas: Counter[int] = Counter()
        self._windows: deque[WindowReport] = deque(maxlen=64)

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def observe(self, op: str, storage_id: str, round_index: int = 0,
                at: float | None = None) -> None:
        """One server access; ``at`` is its arrival instant, if known."""
        if op not in _LIFECYCLE:
            raise ProtocolError(f"unknown op {op!r}")
        key = None
        if self.id_log is not None:
            key = self.id_log.get(storage_id)
            if key is None:
                raise ProtocolError(f"untracked storage id {storage_id}")
        if self.infer_rounds:
            round_index = self._round or 0
            if op == "read" and self._last_op not in (None, "read"):
                round_index += 1
            self._last_op = op
        if round_index != self._round:
            self._enter_round(round_index, at)
        self._check_lifecycle(op, storage_id)
        self.accesses += 1

        if op == "write":
            self._born[storage_id] = round_index
        elif op == "read" and storage_id in self._born:
            alpha = round_index - self._born.pop(storage_id) - 1
            self.alpha_histogram[alpha] += 1
            self._window_alphas[alpha] += 1
        if key is not None and not key.startswith("\x00"):
            if op == "read":
                self._last_read[key] = round_index
            elif op == "write" and key in self._last_read:
                self.beta_histogram[
                    round_index - self._last_read.pop(key)] += 1
        if round_index >= self.from_round:
            shape = self._shape.setdefault(round_index, [0, 0, 0])
            if op == "read":
                shape[0] += 1
                self._reads[storage_id] = self._reads.get(storage_id, 0) + 1
            else:
                shape[1 if op == "delete" else 2] += 1

    def feed(self, records: Iterable[AccessRecord]) -> Adversary:
        """Replay a recorded trace; returns ``self``."""
        for record in records:
            self.observe(record.op, record.storage_id, record.round)
        return self

    def attach(self, tracer: Tracer,
               clock: Callable[[], float] | None = None,
               ) -> Callable[[dict], None]:
        """Feed live from ``tracer``'s ``storage.access`` events.

        :class:`repro.storage.recording.RecordingStore` emits one event
        per access while observability is on.  Each is stamped with
        ``clock()`` (default :func:`repro.obs.clock`, the monotonic
        source; pass a ``SimClock``-reading lambda in tests).  Attach
        before the datastore is built, so that the initial load is seen.
        Returns the subscriber, for ``tracer.unsubscribe``.
        """
        stamp = clock
        if stamp is None:
            from repro.obs import clock as stamp

        def _on_record(record: dict) -> None:
            if record.get("kind") != "event" \
                    or record.get("name") != "storage.access":
                return
            attrs = record.get("attrs", {})
            self.observe(attrs["op"], attrs["id"], attrs["round"],
                         at=stamp())

        tracer.subscribe(_on_record)
        return _on_record

    def _enter_round(self, round_index: int, at: float | None) -> None:
        if self._round is not None and round_index < self._round:
            raise ConfigurationError("rounds must be monotone")
        while round_index >= self._window_start + self.window_rounds:
            self._close_window(self._window_start + self.window_rounds - 1)
        self._round = round_index
        if at is not None:
            if self.release_times and at < self.release_times[-1]:
                raise ConfigurationError(
                    f"non-monotone round instant {at} after "
                    f"{self.release_times[-1]}")
            self.release_times.append(float(at))

    def _check_lifecycle(self, op: str, storage_id: str) -> None:
        current = self._lifecycle.get(storage_id)
        required, after = _LIFECYCLE[op]
        self._lifecycle[storage_id] = after
        if current != required and self.violation is None:
            breach = ("written twice" if op == "write"
                      else f"{after} in state {current!r}")
            self.violation = f"id {storage_id} {breach} (seq {self.accesses})"

    def _close_window(self, end_round: int) -> None:
        max_alpha = max(self._window_alphas) if self._window_alphas else None
        oldest = end_round - min(self._born.values()) if self._born else 0
        breached = self.alpha_budget is not None and (
            (max_alpha is not None and max_alpha > self.alpha_budget)
            or oldest > self.alpha_budget)
        self.breaches += breached
        self._windows.append(WindowReport(
            window_start_round=self._window_start,
            window_end_round=end_round,
            max_alpha=max_alpha,
            samples=sum(self._window_alphas.values()),
            outstanding_ids=len(self._born),
            oldest_outstanding_age=oldest,
            budget_breached=breached,
        ))
        self._window_alphas = Counter()
        self._window_start = end_round + 1

    # ------------------------------------------------------------------
    # readings
    # ------------------------------------------------------------------
    @property
    def max_alpha(self) -> int | None:
        return max(self.alpha_histogram) if self.alpha_histogram else None

    @property
    def min_beta(self) -> int | None:
        return min(self.beta_histogram) if self.beta_histogram else None

    @property
    def unread_ids(self) -> int:
        """Ids written and not yet read (the low-security failure mode)."""
        return len(self._born)

    def unread_written_by(self, round_index: int) -> int:
        """Ids written in or before ``round_index`` and not yet read."""
        return sum(1 for born in self._born.values() if born <= round_index)

    @property
    def windows(self) -> list[WindowReport]:
        """The last 64 completed windows, oldest first."""
        return list(self._windows)

    def satisfies(self, alpha_bound: int, beta_bound: int) -> bool:
        """Theorem 7.3: every α and β seen is within the bounds."""
        return ((self.max_alpha is None or self.max_alpha <= alpha_bound)
                and (self.min_beta is None or self.min_beta >= beta_bound))

    def check_lifecycle(self) -> None:
        """Raise :class:`ProtocolError` naming the first lifecycle breach."""
        if self.violation is not None:
            raise ProtocolError(self.violation)

    def round_load(self) -> dict[str, float]:
        """Mean and CV of reads, deletes and writes over the rounds that
        have any (from ``from_round`` on): ``read_mean``, ``read_cv``…"""
        out = {}
        for column, name in enumerate(("read", "delete", "write")):
            values = np.array([s[column] for s in self._shape.values()
                               if s[column]], dtype=np.float64)
            mean = float(values.mean()) if values.size else 0.0
            out[f"{name}_mean"] = mean
            out[f"{name}_cv"] = float(values.std() / mean) if mean else 0.0
        return out

    def leakage(self) -> LeakageSummary:
        """Entropy, KL and χ² of per-id read counts, and the round CVs.

        Ids never read are not channels the adversary observes, and are
        left out, as in frequency-analysis practice.  Waffle reads every
        id once: entropy 1, KL 0, p = 1.
        """
        counts = np.array(list(self._reads.values()), dtype=np.float64)
        entropy, kl, p_value = 1.0, 0.0, 1.0
        if counts.size > 1:
            p = counts / counts.sum()
            entropy = float(-(p * np.log2(p)).sum()) / math.log2(counts.size)
            q = 1.0 / counts.size
            kl = float((p * np.log2(p / q)).sum())
            expected = counts.mean()
            statistic = float(((counts - expected) ** 2 / expected).sum())
            p_value = chi_square_sf(statistic, counts.size - 1)
        load = self.round_load()
        return LeakageSummary(
            normalized_entropy=entropy,
            kl_divergence_bits=kl,
            chi_square_p=p_value,
            read_cv=load["read_cv"],
            write_cv=load["write_cv"],
        )


def chi_square_sf(statistic: float, dof: int) -> float:
    """P(χ²_dof ≥ statistic): the regularized upper incomplete gamma
    Q(dof/2, statistic/2), by its series below ``a + 1`` and Lentz's
    continued fraction above (Numerical Recipes §6.2)."""
    a, x = dof / 2.0, statistic / 2.0
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * 1e-16:
            n += 1.0
            term *= x / n
            total += term
        return max(0.0, 1.0 - total * front)
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return front * h
