"""Chaos conformance harness: deterministic fault injection plus a
differential oracle over Waffle's correctness *and* obliviousness.

The pieces compose bottom-up:

* :mod:`repro.testing.faults` — seeded :class:`FaultPlan` schedules and
  the one :class:`FaultyStorage` wrapper that executes them (a drop
  stays down until ``reconnect()``);
* :mod:`repro.testing.episodes` — randomized, validated, serializable
  chaos scenarios (:class:`Episode`, :func:`generate_episode`);
* :mod:`repro.testing.runner` — executes an episode against a real
  ``WaffleDatastore`` in a :class:`~repro.ha.ReplicatedProxy` group of the
  episode's ``standbys`` (:func:`run_episode`); its ``deploy``,
  ``retry_round`` (attempt, fail over, retry, self-check) and ``judge``
  steps are shared with :mod:`repro.testing.serving`;
* :mod:`repro.testing.oracle` — the invariants: differential KV
  semantics, replay-prefix obliviousness, constant batch composition,
  id lifecycle, α/β uniformity;
* :mod:`repro.testing.shrink` — ddmin minimizer for failing episodes;
* :mod:`repro.testing.sweep` — seeded many-episode CI sweeps;
* :mod:`repro.testing.identity` — :func:`trace_digest` and
  :func:`assert_trace_identical`, the one trace/response identity check;
* :mod:`repro.testing.reference` — the scalar PRF/AEAD reference kernels
  the optimized ones are held byte-identical to.

Entry points: ``repro.cli chaos`` and ``tests/test_chaos_*.py``.
"""

from repro.testing.episodes import DEFAULT_CONFIG, Episode, generate_episode
from repro.testing.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultyStorage,
    InjectedFault,
)
from repro.testing.identity import assert_trace_identical, trace_digest
from repro.testing.oracle import Attempt, Violation
from repro.testing.reference import ScalarCipher, ScalarPrf, scalar_keychain
from repro.testing.runner import EpisodeResult, run_episode
from repro.testing.shrink import ShrinkResult, shrink_episode
from repro.testing.sweep import DEFAULT_PROFILES, SweepReport, run_sweep

__all__ = [
    "DEFAULT_CONFIG",
    "DEFAULT_PROFILES",
    "Attempt",
    "Episode",
    "EpisodeResult",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyStorage",
    "InjectedFault",
    "ScalarCipher",
    "ScalarPrf",
    "ShrinkResult",
    "SweepReport",
    "Violation",
    "assert_trace_identical",
    "generate_episode",
    "run_episode",
    "run_sweep",
    "scalar_keychain",
    "shrink_episode",
    "trace_digest",
]
