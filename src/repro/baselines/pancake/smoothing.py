"""Pancake's frequency-smoothing mathematics.

Given the assumed plaintext distribution π over ``n`` keys:

* replica count  ``R(k) = max(1, ceil(π(k) · n))`` — so each replica of
  ``k`` carries real-access probability ``π(k)/R(k) ≤ 1/n``;
* the replica universe is padded with dummy replicas to ``n̂ = 2n``
  (``Σ R(k) ≤ 2n`` because ceil adds < 1 per key);
* the fake-query distribution over replicas makes totals uniform at
  δ = 1/2 real/fake mixing:

  ``P(slot hits (k,j)) = δ·π(k)/R(k) + (1-δ)·π_f(k,j) = 1/n̂``
  ⇒ ``π_f(k,j) = 2/n̂ − π(k)/R(k)``  (non-negative by the R(k) choice,
  and equal to ``2/n̂`` for dummy replicas).

Sampling π_f uses Walker's alias method so a fake draw is O(1) — Pancake
issues one per slot on average.
"""

from __future__ import annotations

import math
import random

import numpy as np
from numpy.typing import ArrayLike

from repro.seeding import seeded_rng

from repro.errors import ConfigurationError

__all__ = ["AliasSampler", "SmoothedDistribution"]


class AliasSampler:
    """Walker alias method: O(1) sampling from a fixed discrete law."""

    __slots__ = ("_prob", "_alias", "_rng", "n")

    def __init__(self, weights: ArrayLike, seed: int | None = None) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) == 0:
            raise ConfigurationError("weights must be a non-empty 1-D array")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ConfigurationError("weights must be non-negative, sum > 0")
        self.n = len(weights)
        probability = weights * (self.n / weights.sum())
        prob = np.zeros(self.n)
        alias = np.zeros(self.n, dtype=np.int64)
        small = [i for i, p in enumerate(probability) if p < 1.0]
        large = [i for i, p in enumerate(probability) if p >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            prob[s] = probability[s]
            alias[s] = l
            probability[l] = probability[l] - (1.0 - probability[s])
            (small if probability[l] < 1.0 else large).append(l)
        for remaining in small + large:
            prob[remaining] = 1.0
        self._prob = prob
        self._alias = alias
        self._rng = seeded_rng(seed)

    def sample(self) -> int:
        i = self._rng.randrange(self.n)
        if self._rng.random() < self._prob[i]:
            return i
        return int(self._alias[i])


class SmoothedDistribution:
    """Replica layout and fake-query law for an assumed distribution.

    Parameters
    ----------
    pi:
        Assumed probability of each key index (length n; must sum to ~1).
    seed:
        Seed for the fake-query sampler.
    """

    def __init__(self, pi: ArrayLike, seed: int | None = None) -> None:
        pi = np.asarray(pi, dtype=np.float64)
        if pi.ndim != 1 or len(pi) == 0:
            raise ConfigurationError("pi must be a non-empty 1-D array")
        if np.any(pi < 0):
            raise ConfigurationError("pi must be non-negative")
        total = pi.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ConfigurationError(f"pi must sum to 1, got {total}")
        self.n = len(pi)
        self.pi = pi
        self.replicas = np.maximum(1, np.ceil(pi * self.n)).astype(np.int64)
        self.n_hat = 2 * self.n
        real_total = int(self.replicas.sum())
        if real_total > self.n_hat:
            raise ConfigurationError(
                "replica budget exceeded: sum ceil(pi*n) > 2n"
            )
        self.dummy_replicas = self.n_hat - real_total

        # Enumerate the replica universe: (key_index, replica_index), with
        # key_index = -1 for dummies.
        self.universe: list[tuple[int, int]] = [
            (key, j)
            for key in range(self.n)
            for j in range(int(self.replicas[key]))
        ]
        self.universe.extend((-1, j) for j in range(self.dummy_replicas))

        fake_weights = np.empty(len(self.universe))
        for slot, (key, j) in enumerate(self.universe):
            if key < 0:
                fake_weights[slot] = 2.0 / self.n_hat
            else:
                fake_weights[slot] = 2.0 / self.n_hat - pi[key] / self.replicas[key]
        # Clip away floating-point dust; exact zeros are legitimate for
        # maximally popular keys.
        fake_weights = np.clip(fake_weights, 0.0, None)
        self.fake_weights = fake_weights
        self._fake_sampler = AliasSampler(fake_weights, seed=seed)
        self._replica_rng = seeded_rng(seed, stream=1)

    def replica_count(self, key_index: int) -> int:
        return int(self.replicas[key_index])

    def sample_fake(self) -> tuple[int, int]:
        """Draw a (key_index, replica_index) fake target; key -1 = dummy."""
        return self.universe[self._fake_sampler.sample()]

    def pick_replica(self, key_index: int) -> int:
        """Uniform replica choice for a real access to ``key_index``."""
        return self._replica_rng.randrange(int(self.replicas[key_index]))

    def replica_access_probability(self, key_index: int, replica: int) -> float:
        """Stationary per-slot access probability of one replica (should be
        1/n̂ for every replica when the assumed π matches reality)."""
        slot_offset = int(self.replicas[:key_index].sum()) + replica
        fake = self.fake_weights[slot_offset]
        real = self.pi[key_index] / self.replicas[key_index]
        return 0.5 * real + 0.5 * fake
