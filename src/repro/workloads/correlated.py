"""Correlated (clickstream-style) query workload — the §8.3.2 experiment.

The paper evaluates correlated queries with IHOP's Wikipedia Clickstream
setup: 500 articles, 500k queries whose *transitions* between articles are
correlated (a user reading article i follows a link to article j with
probability proportional to the clickstream counts).  The raw trace is not
distributable here, so we build the closest synthetic equivalent, per the
substitution rule in DESIGN.md:

* a first-order Markov chain over ``n`` keys;
* each key links to a small out-neighbourhood (power-law out-degree, like
  article link graphs), with power-law transition weights;
* the independent control is the paper's own construction — *the same
  trace, randomly shuffled* ("obtained by randomizing the correlated
  queries trace"), which exactly preserves marginal frequencies while
  destroying transitions.

What matters to both the IHOP-style co-occurrence attack and the
α-histogram comparison is the presence of strong pairwise transition
structure over a small key space, which this model provides.
"""

from __future__ import annotations

import random

import numpy as np

from repro.seeding import seeded_rng
from repro.workloads.trace import Operation, TraceRequest
from repro.workloads.ycsb import key_name

__all__ = ["ClickstreamModel", "CorrelatedWorkload"]


class ClickstreamModel:
    """First-order Markov chain with power-law link structure.

    Parameters
    ----------
    n:
        Number of keys (paper/IHOP: 500).
    out_degree:
        Mean number of outgoing links per key.
    alpha:
        Power-law exponent for transition weights: the j-th preferred
        neighbour of a key gets weight ``(j+1)**-alpha``.
    seed:
        Seed for the (static) link graph.  The graph is part of the model,
        the walk consumes a separate RNG.
    """

    def __init__(self, n: int, out_degree: int = 8, alpha: float = 1.2,
                 seed: int | None = None) -> None:
        if n < 2:
            raise ValueError("clickstream model needs at least two keys")
        if out_degree < 1:
            raise ValueError("out_degree must be positive")
        self.n = n
        rng = seeded_rng(seed)
        self.neighbours: list[list[int]] = []
        self.weights: list[list[float]] = []
        for node in range(n):
            degree = max(1, min(n - 1, int(rng.paretovariate(1.5))))
            degree = min(max(degree, 1), max(1, out_degree * 2))
            chosen: list[int] = []
            while len(chosen) < degree:
                candidate = rng.randrange(n)
                if candidate != node and candidate not in chosen:
                    chosen.append(candidate)
            weights = [(j + 1) ** (-alpha) for j in range(len(chosen))]
            total = sum(weights)
            self.neighbours.append(chosen)
            self.weights.append([w / total for w in weights])

    def walk(self, length: int, seed: int | None = None) -> list[int]:
        """Generate a key-index sequence by walking the chain."""
        rng = seeded_rng(seed)
        current = rng.randrange(self.n)
        path = []
        for _ in range(length):
            path.append(current)
            # Occasional teleport keeps the walk ergodic over all keys,
            # like a reader starting a fresh browsing session.
            if rng.random() < 0.05:
                current = rng.randrange(self.n)
            else:
                current = rng.choices(
                    self.neighbours[current], weights=self.weights[current]
                )[0]
        return path

    def transition_matrix(self) -> np.ndarray:
        """Dense row-stochastic transition matrix (tests, attack ground truth)."""
        teleport = 0.05 / self.n
        matrix = np.full((self.n, self.n), teleport)
        for node, (nbrs, weights) in enumerate(zip(self.neighbours, self.weights)):
            for nbr, weight in zip(nbrs, weights):
                matrix[node, nbr] += 0.95 * weight
        return matrix


class CorrelatedWorkload:
    """Read-only trace generator over a clickstream model.

    ``correlated_trace`` yields the Markov walk; ``independent_trace``
    yields the same multiset of requests in shuffled order (the paper's
    control).
    """

    def __init__(self, model: ClickstreamModel, seed: int | None = None) -> None:
        self.model = model
        master = seeded_rng(seed)
        self._walk_seed = master.randrange(2**63)
        self._shuffle_rng = random.Random(master.randrange(2**63))

    def correlated_trace(self, length: int) -> list[TraceRequest]:
        walk = self.model.walk(length, seed=self._walk_seed)
        return [TraceRequest(Operation.READ, key_name(index)) for index in walk]

    def independent_trace(self, length: int) -> list[TraceRequest]:
        """Shuffled copy of the correlated trace: same frequencies, no order."""
        trace = self.correlated_trace(length)
        self._shuffle_rng.shuffle(trace)
        return trace
