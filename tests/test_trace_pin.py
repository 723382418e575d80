"""Literal known-answer pin for the adversary-visible trace.

Every other identity test compares two live twins (serial vs pooled,
observability off vs on, ...), so a change that moved *both* sides would
pass them all.  This test pins the digests one fixed serial run produces
to literals, which makes "trace bytes did not move" checkable across any
refactor of the proxy, the kernels or the stores.
"""

from __future__ import annotations

import hashlib

from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.sim.perf import _build_proxy, _request_stream, _trace_digest

# The crypto-heavy multi-core round shape: N=1024, B=128, R=51, 4 KiB.
PINNED_CONFIG = WaffleConfig(n=1024, b=128, r=51, f_d=25, d=100, c=256,
                             value_size=4096, seed=23)
PINNED_ROUNDS = 12
PINNED_TRACE = \
    "ad70b1201a4af6b00d5d0c2bce3bb88ad89449f8b6c0f68d9781c8896353c3f9"
PINNED_RESPONSES = \
    "346b08d4154d879e4fb71709707a904844ba1704d601b86f6341aa639422bd00"


def test_serial_run_reproduces_pinned_digests():
    seed = PINNED_CONFIG.seed
    proxy = _build_proxy(PINNED_CONFIG, KeyChain.from_seed(seed), record=True)
    responses = hashlib.sha256()
    for batch in _request_stream(PINNED_CONFIG, PINNED_ROUNDS, seed):
        for resp in proxy.handle_batch(batch):
            responses.update(resp.key.encode() + b"\x00" + resp.value)
    assert _trace_digest(proxy.store.records) == PINNED_TRACE
    assert responses.hexdigest() == PINNED_RESPONSES
