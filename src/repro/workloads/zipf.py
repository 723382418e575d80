"""Zipfian and uniform key samplers.

YCSB's request distribution is the scrambled Zipfian: ranks follow
Zipf(theta) and are then permuted over the key space with an FNV-style
hash so that popular keys are spread across the id range rather than
clustered at the low ids.  We reproduce both pieces.

The Zipf sampler uses the standard inverse-CDF construction over a
precomputed cumulative table — exact (not the Gray et al. approximation),
which is affordable at the key-space sizes this reproduction runs and
makes distribution tests sharp.
"""

from __future__ import annotations

import bisect
import random

import numpy as np

from repro.seeding import seeded_rng

__all__ = ["UniformSampler", "ZipfSampler"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a_64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's scramble)."""
    digest = _FNV_OFFSET
    for _ in range(8):
        digest ^= value & 0xFF
        digest = (digest * _FNV_PRIME) & _MASK64
        value >>= 8
    return digest


class ZipfSampler:
    """Samples key indices in ``[0, n)`` from a (scrambled) Zipf law.

    Parameters
    ----------
    n:
        Key-space size.
    theta:
        Skew parameter; the paper uses 0.99.  ``theta=0`` degenerates to
        uniform.
    scrambled:
        Apply YCSB's FNV scramble so popularity is not aligned with index
        order.
    seed:
        RNG seed for reproducible traces.
    """

    __slots__ = ("n", "theta", "_cdf", "_rng", "_scrambled", "_perm")

    def __init__(self, n: int, theta: float = 0.99, scrambled: bool = True,
                 seed: int | None = None) -> None:
        if n <= 0:
            raise ValueError("key-space size must be positive")
        if theta < 0:
            raise ValueError("zipf theta must be non-negative")
        self.n = n
        self.theta = theta
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf
        self._rng = seeded_rng(seed)
        self._scrambled = scrambled
        if scrambled:
            # Rank r maps to a stable pseudo-random index.  A true
            # permutation (not just FNV mod n) avoids popularity collisions.
            shuffler = random.Random(_fnv1a_64(n) ^ 0x9E3779B97F4A7C15)
            perm = list(range(n))
            shuffler.shuffle(perm)
            self._perm = perm
        else:
            self._perm = None

    def sample(self) -> int:
        """Draw one key index."""
        u = self._rng.random()
        rank = bisect.bisect_left(self._cdf, u)
        if rank >= self.n:  # guard against u == 1.0 edge
            rank = self.n - 1
        if self._perm is not None:
            return self._perm[rank]
        return rank

    def probability(self, rank: int) -> float:
        """Probability mass of the key of given popularity ``rank`` (0-based)."""
        if not 0 <= rank < self.n:
            raise IndexError(rank)
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)

    def probabilities_by_index(self) -> np.ndarray:
        """Probability mass per key *index* (after scrambling)."""
        by_rank = np.diff(self._cdf, prepend=0.0)
        if self._perm is None:
            return by_rank
        out = np.empty(self.n)
        for rank, index in enumerate(self._perm):
            out[index] = by_rank[rank]
        return out


class UniformSampler:
    """Uniform key-index sampler (Table 2's 'Uniform' input distribution)."""

    __slots__ = ("n", "_rng")

    def __init__(self, n: int, seed: int | None = None) -> None:
        if n <= 0:
            raise ValueError("key-space size must be positive")
        self.n = n
        self._rng = seeded_rng(seed)

    def sample(self) -> int:
        return self._rng.randrange(self.n)

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.n:
            raise IndexError(rank)
        return 1.0 / self.n
