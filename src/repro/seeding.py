"""Deterministic RNG construction: no code path falls back to OS entropy.

``random.Random(seed)`` with ``seed=None`` silently seeds from
``os.urandom`` — which makes the chaos harness's replay-from-a-seed
guarantee fiction for every caller that relies on a default.  The
``oblint`` determinism pass (OBL202) bans that pattern; this module is
the one blessed constructor.  Components take ``seed: int | None`` in
their public signatures as before, but an omitted seed now means *the
documented default seed*, not fresh entropy.

``stream`` derives independent-but-reproducible generators from one
seed (e.g. a replica-placement RNG alongside a sampling RNG), replacing
the ad-hoc ``seed + 1`` idiom.
"""

from __future__ import annotations

import random

__all__ = ["DEFAULT_SEED", "seeded_rng"]

#: The documented fallback seed used whenever a caller omits ``seed``.
DEFAULT_SEED = 0x0B5E55ED


def seeded_rng(seed: int | None, stream: int = 0) -> random.Random:
    """A ``random.Random`` that is always deterministically seeded:
    ``seed`` (or the default, never None) plus ``stream``."""
    base = DEFAULT_SEED if seed is None else seed
    return random.Random(base + stream)
