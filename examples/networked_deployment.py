#!/usr/bin/env python3
"""Networked deployment: the paper's topology over real sockets.

The paper runs three machines — client, proxy, storage server.  This
example stands up the storage server on a real TCP socket (in a thread,
standing in for the remote machine), points a Waffle proxy at it through
the wire protocol, and shows that the *server-side* adversary — the one
the threat model cares about — records exactly the same kind of
write-once/read-once id stream as the in-process runs.

Run:  python examples/networked_deployment.py
"""

import random

from repro.analysis import Adversary
from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.net import RemoteStore, StorageServer
from repro.storage.recording import RecordingStore
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation


def main() -> None:
    n = 300
    config = WaffleConfig(n=n, b=24, r=10, f_d=4, d=100, c=40,
                          value_size=128, seed=7)
    items = {f"user{i:08d}": b"payload-%d" % i for i in range(n)}

    # The "storage machine": RedisSim + the adversary's recorder, behind
    # a TCP server.  The recorder sits server-side, where a curious
    # operator would.
    server_view = RecordingStore(RedisSim(write_once=True))
    with StorageServer(server_view) as server:
        host, port = server.address
        print(f"storage server listening on {host}:{port}")

        # The "proxy machine": a Waffle proxy whose backend is a socket.
        with RemoteStore(server.address) as remote:
            datastore = WaffleDatastore(config, items, store=remote,
                                        record=False,
                                        keychain=KeyChain.from_seed(8))
            print(f"proxy initialized over TCP; server holds "
                  f"{len(remote)} encrypted objects")

            rng = random.Random(9)
            reference = dict(items)
            for _ in range(25):
                batch, expected = [], []
                for _ in range(config.r):
                    key = f"user{rng.randrange(n):08d}"
                    if rng.random() < 0.3:
                        value = b"net-write-%d" % rng.randrange(10**6)
                        batch.append(ClientRequest(op=Operation.WRITE,
                                                   key=key, value=value))
                        reference[key] = value
                        expected.append(value)
                    else:
                        batch.append(ClientRequest(op=Operation.READ,
                                                   key=key))
                        expected.append(reference[key])
                responses = datastore.execute_batch(batch)
                assert [r.value for r in responses] == expected
            print(f"25 batches ({25 * config.r} requests) served over "
                  "the wire, all linearizable")

    # What did the server-side adversary capture?  (A round's COMMIT is
    # handed over and acknowledged one call later; leaving the ``with
    # RemoteStore`` block collected the last acknowledgement, so the
    # recorder is complete.  Code that looks behind the server while the
    # connection is open calls ``remote.flush()`` first.)  Over the wire
    # there are no round markers, but the read/delete/write burst
    # structure gives the rounds away — infer them as the adversary would.
    report = Adversary(infer_rounds=True).feed(server_view.records)
    report.check_lifecycle()
    reads = sum(1 for r in server_view.records if r.op == "read")
    writes = sum(1 for r in server_view.records if r.op == "write")
    print("\nserver-side adversary's view:")
    print(f"  {len(server_view.records)} accesses "
          f"({reads} reads, {writes} writes)")
    print(f"  every id written once, read once, deleted: OK")
    print(f"  observed max alpha: {report.max_alpha} "
          f"(bound {config.alpha_bound_effective()})")
    print("identical guarantees to the in-process runs — the wire "
          "changes nothing the adversary sees.")


if __name__ == "__main__":
    main()
