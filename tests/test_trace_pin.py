"""Literal known-answer pin for the adversary-visible trace, plus the
kernel-independence check and the identity helper's own failure mode.

Every other identity test compares two live twins (serial vs pooled,
observability off vs on, ...), so a change that moved *both* sides would
pass them all.  This test pins the digests one fixed serial run produces
to literals, which makes "trace bytes did not move" checkable across any
refactor of the proxy, the kernels or the stores.
"""

from __future__ import annotations

import pytest

from repro.core.config import WaffleConfig
from repro.testing.identity import assert_trace_identical, seeded_run
from repro.testing.reference import scalar_keychain

# The crypto-heavy multi-core round shape: N=1024, B=128, R=51, 4 KiB.
PINNED_CONFIG = WaffleConfig(n=1024, b=128, r=51, f_d=25, d=100, c=256,
                             value_size=4096, seed=23)
PINNED_ROUNDS = 12
PINNED_TRACE = \
    "ad70b1201a4af6b00d5d0c2bce3bb88ad89449f8b6c0f68d9781c8896353c3f9"
PINNED_RESPONSES = \
    "346b08d4154d879e4fb71709707a904844ba1704d601b86f6341aa639422bd00"


def test_serial_run_reproduces_pinned_digests():
    trace, responses = seeded_run(PINNED_CONFIG, PINNED_ROUNDS)()
    assert trace == PINNED_TRACE
    assert responses == PINNED_RESPONSES


def test_adversary_view_is_kernel_independent():
    """Scalar and batched kernels must be indistinguishable to the
    server: identical access traces and identical client responses on a
    fixed-seed workload."""
    config = WaffleConfig.paper_defaults(n=256, seed=5)
    assert_trace_identical(seeded_run(config, 8, keychain=scalar_keychain),
                           seeded_run(config, 8))


def test_helper_rejects_divergent_runs():
    with pytest.raises(AssertionError, match="diverged"):
        assert_trace_identical(lambda: ("trace-a", "same"),
                               lambda: ("trace-b", "same"))
