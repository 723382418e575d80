#!/usr/bin/env python3
"""Quickstart: stand up a Waffle datastore and watch what the server sees.

Creates a small deployment (N=1,000 objects), issues reads and writes
through the buffered client, then contrasts the plaintext request stream
with the adversary-observable server trace: rotating storage ids, batches
of exactly B reads and B writes, and bounded α.

Run:  python examples/quickstart.py
"""

from repro import WaffleClient, WaffleConfig, WaffleDatastore
from repro.analysis import Adversary
from repro.crypto.keys import KeyChain


def main() -> None:
    # 1. The dataset: 1,000 equal-sized objects.
    items = {f"user{i:08d}": b"profile-data-%04d" % i for i in range(1000)}

    # 2. Paper-default parameters scaled to N=1,000 (B, R=40%B, f_D=20%B,
    #    C=2%N, D balancing the two alpha ratios).
    config = WaffleConfig.paper_defaults(n=1000, seed=7)
    print(f"config: B={config.b} R={config.r} f_D={config.f_d} "
          f"C={config.c} D={config.d}")
    print(f"bounds: alpha<={config.alpha_bound()} (Theorem 7.1), "
          f"beta>={config.beta_bound()} (Theorem 7.2), "
          f"bandwidth overhead {config.bandwidth_overhead():.2f}x")

    # 3. Bring up the datastore (in-process Redis-like server + proxy),
    #    with the adversary's recorder and id provenance enabled.
    store = WaffleDatastore(config, items, keychain=KeyChain.from_seed(42),
                            log_ids=True)
    client = WaffleClient(store)

    # 4. Ordinary key-value usage.
    print("\nget:", client.get_now("user00000042"))
    client.put_now("user00000042", b"updated!")
    print("get after put:", client.get_now("user00000042"))

    # Buffered mode: requests batch up to R before hitting the server.
    handles = [client.get(f"user{i:08d}") for i in range(100)]
    client.flush()
    print(f"fetched {sum(1 for h in handles if h.done)} buffered reads")

    # Inserts and deletes swap dummy objects for real ones (§6.2).
    store.insert("newcomer0001", b"hello")
    store.delete("user00000099")
    store.execute_batch([])  # the next round applies both
    print("inserted key readable:", client.get_now("newcomer0001"))

    # 5. What did the adversary see?
    records = store.recorder.records
    report = Adversary(store.proxy.id_log).feed(records)
    report.check_lifecycle()  # write-once/read-once ids
    print(f"\nadversary view: {len(records)} accesses over "
          f"{store.proxy.totals.rounds} rounds")
    print(f"observed max alpha = {report.max_alpha} "
          f"(implementation bound {config.alpha_bound_effective()})")
    print(f"observed min beta  = {report.min_beta} "
          f"(bound {config.beta_bound()})")
    sample = [r.storage_id[:12] for r in records[-6:]]
    print("last observed storage ids (never repeat):", sample)


if __name__ == "__main__":
    main()
