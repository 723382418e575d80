"""Concurrency tests for the network substrate."""

import threading

import pytest

from repro.net import RemoteStore, StorageServer
from repro.storage.redis_sim import RedisSim


class TestConcurrentClients:
    def test_parallel_connections_isolated_and_consistent(self):
        """Many client threads with their own connections interleave
        safely: every write lands, no cross-talk."""
        with StorageServer(RedisSim()) as server:
            errors: list[str] = []

            def worker(thread_id: int) -> None:
                try:
                    with RemoteStore(server.address) as store:
                        for step in range(30):
                            key = f"t{thread_id}-k{step}"
                            value = b"%d:%d" % (thread_id, step)
                            store.multi_put([(key, value)])
                            if store.multi_get([key]) != [value]:
                                errors.append(f"{key} mismatch")
                except Exception as error:  # noqa: BLE001
                    errors.append(repr(error))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(server.backend) == 6 * 30

    def test_shared_connection_serializes_safely(self):
        """One RemoteStore shared by threads: the internal lock keeps
        frames from interleaving."""
        with StorageServer(RedisSim()) as server:
            with RemoteStore(server.address) as store:
                errors: list[str] = []

                def worker(thread_id: int) -> None:
                    for step in range(25):
                        key = f"s{thread_id}-{step}"
                        store.multi_put([(key, b"x%d" % step)])
                        if store.multi_get([key]) != [b"x%d" % step]:
                            errors.append(key)

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []

    def test_pipeline_atomic_under_concurrency(self):
        """Pipelined batches from concurrent clients don't interleave
        mid-pipeline (the server lock covers a whole pipeline)."""
        with StorageServer(RedisSim()) as server:
            results: dict[int, list[bytes]] = {}

            def worker(thread_id: int) -> None:
                with RemoteStore(server.address) as store:
                    items = [(f"p{thread_id}-{i}", b"v%d" % i)
                             for i in range(40)]
                    store.multi_put(items)
                    results[thread_id] = store.multi_get(
                        [key for key, _ in items])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for thread_id, values in results.items():
                assert values == [b"v%d" % i for i in range(40)]
