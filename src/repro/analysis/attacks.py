"""Inference attacks against recorded access traces.

Two attacks from the paper's threat narrative:

* **Frequency analysis** (§2): rank the observed per-id access counts and
  match them against an auxiliary plaintext frequency estimate.  Breaks
  deterministically-encrypted stores with static ids; defeated by
  Pancake's smoothing (all frequencies equal) and trivially by Waffle
  (ids never repeat).
* **Co-occurrence attack** (§8.3.2, an IHOP-style simplification): for
  correlated workloads, adjacent requests touch correlated keys, so with
  *static* ids the adversary can estimate a ciphertext co-occurrence
  matrix and align it with an auxiliary plaintext transition model.  We
  implement the alignment as frequency-seeded hill climbing over
  assignments (IHOP uses quadratic optimization; hill climbing on the
  same objective reproduces the qualitative result at reproduction
  scale).  Against Pancake the attack recovers a substantial fraction of
  keys; against Waffle every id occurs at most twice (one write, one
  read) so the co-occurrence signal simply does not exist.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.seeding import seeded_rng
from repro.storage.recording import AccessRecord

__all__ = [
    "AttackResult",
    "cooccurrence_attack",
    "frequency_analysis_attack",
    "observed_read_sequence",
]

#: Share of the observed ids whose key the co-occurrence adversary knows.
_KNOWN_FRACTION = 0.5
#: The co-occurrence attack aligns at most this many (most frequent) ids.
_MAX_IDS = 2000


@dataclass(frozen=True, slots=True)
class AttackResult:
    """Outcome of an attack: guessed mapping and accuracy vs ground truth."""

    guesses: dict[str, str]  # storage id -> guessed plaintext key
    accuracy: float
    recovered: int
    targets: int


def observed_read_sequence(records: list[AccessRecord]) -> list[str]:
    """The adversary's view reduced to the sequence of read storage ids."""
    return [record.storage_id for record in records if record.op == "read"]


# ----------------------------------------------------------------------
# frequency analysis
# ----------------------------------------------------------------------
def frequency_analysis_attack(records: list[AccessRecord],
                              auxiliary: dict[str, float],
                              truth: dict[str, str]) -> AttackResult:
    """Classic frequency matching: i-th most-accessed id ↦ i-th most
    popular key of the auxiliary distribution.

    Parameters
    ----------
    records:
        The adversary's trace.
    auxiliary:
        The attacker's prior: plaintext key → assumed access probability.
    truth:
        Ground-truth id → key mapping for scoring (ids absent from
        ``truth`` — dummies — are excluded from accuracy).
    """
    counts = Counter(observed_read_sequence(records))
    ranked_ids = [sid for sid, _ in counts.most_common()]
    ranked_keys = [key for key, _ in
                   sorted(auxiliary.items(), key=lambda kv: -kv[1])]
    guesses = {
        sid: key for sid, key in zip(ranked_ids, ranked_keys)
    }
    return _score(guesses, truth)


def _score(guesses: dict[str, str], truth: dict[str, str]) -> AttackResult:
    targets = [sid for sid in guesses if sid in truth]
    recovered = sum(1 for sid in targets if guesses[sid] == truth[sid])
    accuracy = recovered / len(targets) if targets else 0.0
    return AttackResult(guesses=guesses, accuracy=accuracy,
                        recovered=recovered, targets=len(targets))


# ----------------------------------------------------------------------
# co-occurrence (correlated-query) attack
# ----------------------------------------------------------------------
def _cooccurrence_matrix(sequence: list[str], ids: list[str],
                         window: int) -> np.ndarray:
    index = {sid: i for i, sid in enumerate(ids)}
    matrix = np.zeros((len(ids), len(ids)))
    for pos, sid in enumerate(sequence):
        i = index.get(sid)
        if i is None:
            continue
        for other in sequence[pos + 1: pos + 1 + window]:
            j = index.get(other)
            if j is not None and j != i:
                matrix[i, j] += 1.0
                matrix[j, i] += 1.0
    total = matrix.sum()
    if total > 0:
        matrix /= total
    return matrix


def cooccurrence_attack(records: list[AccessRecord],
                        transition_model: np.ndarray,
                        keys: list[str],
                        truth: dict[str, str],
                        window: int = 4,
                        iterations: int = 4,
                        seed: int | None = None,
                        min_occurrences: int = 2) -> AttackResult:
    """Known-query co-occurrence attack (the IHOP refinement step).

    Threat model: the adversary knows the plaintext key behind half of
    the observed ciphertext ids (IHOP and the broader leakage-abuse
    literature evaluate exactly this "known queries" setting) plus the
    key-to-key transition model.  Each remaining id is matched to the key
    whose model co-occurrence profile best aligns with the id's observed
    co-occurrence against the already-assigned ids; a few self-training
    iterations propagate confident assignments.

    Accuracy is scored **only over the ids the adversary did not already
    know**.

    Parameters
    ----------
    transition_model:
        Auxiliary knowledge: row-stochastic key-to-key transition matrix
        (e.g. from :meth:`ClickstreamModel.transition_matrix`).
    keys:
        Key names index-aligned with ``transition_model``.
    truth:
        Ground-truth id → key, used both to seed the known subset and to
        score the result.
    min_occurrences:
        Ids seen fewer times than this are skipped — they carry no
        co-occurrence signal.  Against Waffle this filters *every* id
        (each id is read at most once), which is precisely its defence.
    """
    sequence = observed_read_sequence(records)
    counts = Counter(sequence)
    ids = [sid for sid, c in counts.most_common(_MAX_IDS)
           if c >= min_occurrences]
    if not ids:
        return AttackResult(guesses={}, accuracy=0.0, recovered=0, targets=0)

    observed = _cooccurrence_matrix(sequence, ids, window)

    # Plaintext model: symmetrized stationary-weighted co-occurrence.
    stationary = _stationary_distribution(transition_model)
    model = (stationary[:, None] * transition_model)
    model = model + model.T
    model /= model.sum()

    key_index = {key: i for i, key in enumerate(keys)}
    rng = seeded_rng(seed)
    in_truth = [i for i, sid in enumerate(ids) if sid in truth]
    known_count = max(1, int(_KNOWN_FRACTION * len(in_truth))) if in_truth else 0
    known = set(rng.sample(in_truth, known_count)) if in_truth else set()
    assignment: dict[int, int] = {
        i: key_index[truth[ids[i]]] for i in known
    }

    n_keys = len(keys)
    for _ in range(iterations):
        for i in range(len(ids)):
            if i in known:
                continue
            profile = np.zeros(n_keys)
            for j, kj in assignment.items():
                if j != i:
                    profile[kj] += observed[i, j]
            norm = np.linalg.norm(profile)
            if norm == 0:
                continue
            scores = model @ (profile / norm)
            assignment[i] = int(np.argmax(scores))

    guesses = {
        ids[i]: keys[k] for i, k in assignment.items() if i not in known
    }
    return _score(guesses, truth)


def _stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix (power method)."""
    n = transition.shape[0]
    vec = np.full(n, 1.0 / n)
    for _ in range(200):
        nxt = vec @ transition
        if np.abs(nxt - vec).sum() < 1e-12:
            vec = nxt
            break
        vec = nxt
    return vec / vec.sum()
