"""The paper's topology on loopback: proxy here, storage in a child process."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.backend import ENV_VAR as BACKEND_ENV_VAR
from repro.crypto.keys import KeyChain
from repro.net.client import RemoteStore

from workloads import Workload

__all__ = ["Deployment", "StorageProcess", "child_env"]

_HERE = pathlib.Path(__file__).resolve().parent


def child_env() -> dict[str, str]:
    """The environment for child interpreters: repo-default crypto backend."""
    env = dict(os.environ)
    env.pop(BACKEND_ENV_VAR, None)
    return env


class StorageProcess:
    """A ``repro.net.server.StorageServer`` running in its own interpreter."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(_HERE / "storage_proc.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env())
        port = self._proc.stdout.readline()
        if not port.strip():
            self.stop()
            raise RuntimeError("storage process did not start")
        self.address = ("127.0.0.1", int(port))

    def stop(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Deployment:
    """One initialised Waffle datastore over a fresh storage process.

    ``setup_span`` is the (start, end) ``time.perf_counter()`` instants of
    what a user waits for before the first round can run: connect, derive
    keys, encrypt the N + D - C outsourced objects and load them over the
    wire.  Building the input items is not part of it.
    """

    def __init__(self, workload: Workload, seed: int,
                 items: dict[str, bytes]) -> None:
        config = WaffleConfig(
            n=workload.n, b=workload.b, r=workload.r, f_d=workload.f_d,
            d=workload.d, c=workload.c, value_size=workload.value_size,
            seed=seed)
        self.storage = StorageProcess()
        try:
            start = time.perf_counter()
            self.store = RemoteStore(self.storage.address)
            # record=False: the adversary-trace recorder is an analysis
            # instrument that grows without bound, not part of serving.
            self.datastore = WaffleDatastore(
                config, items, store=self.store, record=False,
                keychain=KeyChain.from_seed(seed))
            self.setup_span = (start, time.perf_counter())
        except BaseException:
            self.storage.stop()
            raise

    def close(self) -> None:
        self.store.close()
        self.storage.stop()
