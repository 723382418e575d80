"""Hash-partitioned composition of independent Waffle instances."""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.core.batch import ClientRequest, ClientResponse
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError

__all__ = ["PartitionedWaffle"]


def _router(master_seed: int) -> tuple[bytes, hashlib.blake2s]:
    """The routing key and a blake2s hasher pre-keyed with it: copying it
    per key skips key-block setup on the serving hot path."""
    route_key = hashlib.sha256(b"route:%d" % master_seed).digest()[:8]
    return route_key, hashlib.blake2s(key=route_key, digest_size=8)


def _owner(hasher_proto: hashlib.blake2s, key: str, partitions: int) -> int:
    hasher = hasher_proto.copy()
    hasher.update(key.encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big") % partitions


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
                 record: bool = False, log_ids: bool = False) -> None:
        if partitions < 1:
            raise ConfigurationError("need at least one partition")
        self.partitions = partitions
        self._route_key, self._hasher_proto = _router(master_seed)
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

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def partition_of(self, key: str) -> int:
        return _owner(self._hasher_proto, key, self.partitions)

    @staticmethod
    def plan_partitions(candidate_keys: Iterable[str], per_partition: int,
                        partitions: int, master_seed: int = 0) -> list[str]:
        """Select keys from ``candidate_keys`` so each partition receives
        exactly ``per_partition`` of them (callers generate values for the
        returned keys).  Raises if the candidates cannot fill the plan.
        """
        _, hasher_proto = _router(master_seed)
        buckets: list[list[str]] = [[] for _ in range(partitions)]
        for key in candidate_keys:
            index = _owner(hasher_proto, key, partitions)
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
        """Route a batch: each partition executes its share (≤ R each),
        one share after another in first-appearance partition order.

        Responses return in the order of ``requests``.
        """
        shares: dict[int, list[ClientRequest]] = {}
        for request in requests:
            shares.setdefault(self.partition_of(request.key),
                              []).append(request)
        by_id: dict[int, ClientResponse] = {}
        r = self.config.r
        for index, share in shares.items():
            # A partition accepts at most R requests per round; larger
            # shares run as consecutive rounds.
            execute = self.stores[index].execute_batch
            for start in range(0, len(share), r):
                for response in execute(share[start: start + r]):
                    by_id[response.request_id] = response
        return [by_id[request.request_id] for request in requests]

    def insert(self, key: str, value: bytes) -> None:
        self.stores[self.partition_of(key)].insert(key, value)

    def delete(self, key: str) -> None:
        self.stores[self.partition_of(key)].delete(key)

    def contains_key(self, key: str) -> bool:
        return self.stores[self.partition_of(key)].proxy.contains_key(key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_keys(self) -> int:
        return sum(store.proxy.real_count for store in self.stores)

    def rounds_per_partition(self) -> list[int]:
        return [store.proxy.totals.rounds for store in self.stores]

