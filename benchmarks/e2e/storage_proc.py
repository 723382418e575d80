"""The storage machine: a ``StorageServer`` in a process of its own.

Prints the port it bound, then serves until its stdin closes.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.net.server import StorageServer  # noqa: E402
from repro.storage.redis_sim import RedisSim  # noqa: E402


def main() -> None:
    # write_once is Waffle's server mode (WaffleDatastore's own default).
    with StorageServer(RedisSim(write_once=True)) as server:
        print(server.address[1], flush=True)
        sys.stdin.read()


if __name__ == "__main__":
    main()
