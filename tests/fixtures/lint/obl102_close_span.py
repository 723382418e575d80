# oblint-fixture-path: repro/core/planted.py
"""Known-bad fixture: a plaintext key rides a closing span's attributes.

``close_span`` writes its keyword attributes into the exportable trace
record, so it is a trace sink exactly like ``event`` (OBL102).
"""

from typing import Any


def leak_span(obs: Any, token: int, key: str) -> None:
    obs.close_span(token, 0.0, key=key)
