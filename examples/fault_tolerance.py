#!/usr/bin/env python3
"""Fault tolerance: the replicated proxy surviving crashes.

The paper assumes the stateful proxy is "highly available (which can be
ensured with techniques such as a primary-secondary replication)" (§3.1)
and lists fault tolerance as future work (§10).  This example runs that
machinery: the datastore's primary proxy ships a state snapshot to its
one standby at every batch boundary, we "crash" it twice mid-workload, fail over, and
verify afterwards that nothing observable changed — responses stayed
linearizable, no storage id was ever reused, and the α/β bounds held
across both incarnations.

Run:  python examples/fault_tolerance.py
"""

import random

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.ha import ReplicatedProxy, capture_proxy
from repro.workloads.trace import Operation


def main() -> None:
    n = 400
    config = WaffleConfig(n=n, b=32, r=12, f_d=6, d=120, c=50,
                          value_size=128, seed=3)
    items = {f"user{i:08d}": b"original-%d" % i for i in range(n)}

    datastore = WaffleDatastore(config, items,
                                keychain=KeyChain.from_seed(4), log_ids=True)
    ha = ReplicatedProxy(datastore)
    print(f"deployment up: N={n}, B={config.b}, standby snapshot "
          f"{len(capture_proxy(ha.proxy)):,} bytes")

    reference = dict(items)
    rng = random.Random(5)

    def run_batches(count: int) -> None:
        for _ in range(count):
            batch, expected = [], []
            for _ in range(config.r):
                key = f"user{rng.randrange(n):08d}"
                if rng.random() < 0.4:
                    value = b"write-%06d" % rng.randrange(10**6)
                    batch.append(ClientRequest(
                        op=Operation.WRITE, key=key, value=value))
                    reference[key] = value
                    expected.append(value)
                else:
                    batch.append(ClientRequest(op=Operation.READ, key=key))
                    expected.append(reference[key])
            responses = ha.execute_batch(batch)
            got = [r.value for r in responses]
            assert got == expected, "linearizability violated!"

    run_batches(30)
    print(f"30 batches served by primary (ts={ha.proxy.ts})")

    print("\n*** primary crashes — promoting standby ***")
    ha.fail_over()
    run_batches(30)
    print(f"30 more batches served by the promoted standby "
          f"(ts={ha.proxy.ts})")

    print("\n*** second crash — promoting again ***")
    ha.fail_over()
    run_batches(30)
    print(f"30 more batches after the second failover (ts={ha.proxy.ts})")

    # Nothing observable changed across incarnations:
    report = Adversary(ha.proxy.id_log).feed(datastore.recorder.records)
    report.check_lifecycle()
    alpha_ok = report.max_alpha <= config.alpha_bound_effective()
    beta_ok = report.min_beta >= config.beta_bound()
    print("\npost-mortem over the full (3-incarnation) trace:")
    print(f"  every storage id written once / read once : OK")
    print(f"  max alpha {report.max_alpha} <= bound "
          f"{config.alpha_bound_effective()} : {alpha_ok}")
    print(f"  min beta {report.min_beta} >= bound {config.beta_bound()} : "
          f"{beta_ok}")
    print(f"  failovers survived: {ha.failovers}, batches acknowledged: "
          f"{ha.acknowledged_batches}")
    assert alpha_ok and beta_ok, "alpha/beta bound violated across failover"


if __name__ == "__main__":
    main()
