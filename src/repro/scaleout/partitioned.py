"""Hash-partitioned composition of independent Waffle instances."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError

__all__ = ["PartitionedWaffle"]


class PartitionedWaffle:
    """Several independent Waffle datastores behind one request router.

    Parameters
    ----------
    config:
        Parameters for ONE partition sized for ``config.n`` keys per
        partition; every partition gets an identical (but independently
        seeded and keyed) copy.
    items:
        The full dataset; keys are hash-routed to partitions, and each
        partition must end up with exactly ``config.n`` keys — callers
        build partition-balanced datasets with :meth:`plan_partitions`.
    partitions:
        Number of partitions.
    master_seed:
        Seeds the per-partition keychains and the routing hash key.
    """

    def __init__(self, config: WaffleConfig, items: dict[str, bytes],
                 partitions: int, master_seed: int = 0,
                 record: bool = False, log_ids: bool = False,
                 shard_workers: int = 1) -> None:
        if partitions < 1:
            raise ConfigurationError("need at least one partition")
        if shard_workers < 1:
            raise ConfigurationError("need at least one shard worker")
        self.partitions = partitions
        self._route_key = hashlib.sha256(
            b"route:%d" % master_seed).digest()[:8]
        self._hasher_proto = hashlib.blake2s(key=self._route_key,
                                             digest_size=8)
        grouped: list[dict[str, bytes]] = [{} for _ in range(partitions)]
        for key, value in items.items():
            grouped[self.partition_of(key)][key] = value
        for index, group in enumerate(grouped):
            if len(group) != config.n:
                raise ConfigurationError(
                    f"partition {index} holds {len(group)} keys, "
                    f"config.n={config.n}; build the dataset with "
                    "plan_partitions()"
                )
        self.stores = [
            WaffleDatastore(
                config, grouped[index],
                keychain=KeyChain.from_seed(master_seed * 1000 + index),
                record=record, log_ids=log_ids,
            )
            for index in range(partitions)
        ]
        self.config = config
        #: Shard-parallel dispatch: partitions are fully independent
        #: deployments (disjoint proxies, keychains, servers, recorders),
        #: so their rounds may run concurrently.  The merge below is
        #: deterministic and each partition's adversary trace is the
        #: byte-identical sequence serial execution produces — only the
        #: interleaving *between* partitions (which the per-partition
        #: adversary never sees) changes.
        self._executor: ThreadPoolExecutor | None = None
        if shard_workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=min(shard_workers, partitions),
                thread_name_prefix="shard")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def partition_of(self, key: str) -> int:
        # Copying a pre-keyed hasher skips blake2s key-block setup per
        # call — this is the serving hot path (every routed get/put).
        hasher = self._hasher_proto.copy()
        hasher.update(key.encode("utf-8"))
        return int.from_bytes(hasher.digest(), "big") % self.partitions

    def partition_of_many(self, keys) -> list[int]:
        """Bulk router: one pass, no per-key attribute lookups.

        Byte-identical to calling :meth:`partition_of` per key — the
        batched request path and dataset construction route through
        here so the hasher-copy fast path is exercised everywhere.
        """
        proto = self._hasher_proto
        partitions = self.partitions
        out = []
        for key in keys:
            hasher = proto.copy()
            hasher.update(key.encode("utf-8"))
            out.append(int.from_bytes(hasher.digest(), "big") % partitions)
        return out

    @classmethod
    def plan_partitions(cls, candidate_keys, per_partition: int,
                        partitions: int, master_seed: int = 0) -> list[str]:
        """Select keys from ``candidate_keys`` so each partition receives
        exactly ``per_partition`` of them (callers generate values for the
        returned keys).  Raises if the candidates cannot fill the plan.
        """
        planner = cls.__new__(cls)
        planner.partitions = partitions
        planner._route_key = hashlib.sha256(
            b"route:%d" % master_seed).digest()[:8]
        planner._hasher_proto = hashlib.blake2s(key=planner._route_key,
                                                digest_size=8)
        buckets: list[list[str]] = [[] for _ in range(partitions)]
        for key in candidate_keys:
            index = planner.partition_of(key)
            if len(buckets[index]) < per_partition:
                buckets[index].append(key)
            if all(len(b) >= per_partition for b in buckets):
                break
        if not all(len(b) >= per_partition for b in buckets):
            raise ConfigurationError(
                "not enough candidate keys to balance the partitions"
            )
        return [key for bucket in buckets for key in bucket]

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def execute_batch(self, requests: list[ClientRequest],
                      ) -> list[ClientResponse]:
        """Route a batch: each partition executes its share (≤ R each).

        Responses return in the order of ``requests``.
        """
        shares: dict[int, list[ClientRequest]] = {}
        owners = self.partition_of_many(request.key for request in requests)
        for request, owner in zip(requests, owners):
            shares.setdefault(owner, []).append(request)
        by_id: dict[int, ClientResponse] = {}
        r = self.config.r

        def run_share(index: int,
                      share: list[ClientRequest]) -> list[ClientResponse]:
            # A partition accepts at most R requests per round; larger
            # shares run as consecutive rounds.
            responses: list[ClientResponse] = []
            for start in range(0, len(share), r):
                responses.extend(
                    self.stores[index].execute_batch(share[start: start + r]))
            return responses

        if self._executor is None:
            share_results = [run_share(index, share)
                             for index, share in shares.items()]
        else:
            # Deterministic merge: futures are gathered in fixed partition
            # order regardless of completion order, and responses key by
            # request_id, so the output is identical to serial execution.
            futures = [self._executor.submit(run_share, index, share)
                       for index, share in sorted(shares.items())]
            share_results = [future.result() for future in futures]
        for responses in share_results:
            for response in responses:
                by_id[response.request_id] = response
        return [by_id[request.request_id] for request in requests]

    def insert(self, key: str, value: bytes) -> None:
        self.stores[self.partition_of(key)].insert(key, value)

    def delete(self, key: str) -> None:
        self.stores[self.partition_of(key)].delete(key)

    def contains_key(self, key: str) -> bool:
        return self.stores[self.partition_of(key)].proxy.contains_key(key)

    def close(self) -> None:
        """Shut down the shard executor (no-op for serial dispatch)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_keys(self) -> int:
        return sum(store.proxy.real_count for store in self.stores)

    def rounds_per_partition(self) -> list[int]:
        return [store.proxy.totals.rounds for store in self.stores]

