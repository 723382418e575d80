"""Networked deployment substrate.

Everything else in this repository runs the storage server in-process
for speed and determinism.  This package provides the pieces to deploy
the same components across a real network boundary, matching the
paper's three-machine topology (client / proxy / storage server):

* :mod:`repro.net.protocol` — a length-prefixed binary framing of the
  storage command interface (the round's two packed-array frames MGET
  and COMMIT, plus EXISTS and DBSIZE), RESP-like in spirit but typed;
* :mod:`repro.net.server` — a threaded TCP server hosting any
  :class:`~repro.storage.base.StorageBackend` (RedisSim by default);
* :mod:`repro.net.client` — a :class:`~repro.storage.base.StorageBackend`
  implementation that speaks the protocol over a socket, so a Waffle
  proxy can point at a remote server with zero code changes.

The adversary model is unchanged: the server-side recorder observes the
same access sequence whether the commands arrive in-process or over TCP
(a test asserts exactly this).
"""

from repro.net.client import RemoteStore
from repro.net.server import StorageServer

__all__ = ["RemoteStore", "StorageServer"]
