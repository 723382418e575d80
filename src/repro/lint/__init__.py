"""``oblint``: domain-specific static analysis for oblivious-protocol code.

Public surface::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])        # uses .oblint.json if present
    print(report.describe())                # doctest-style; CLI does this
    sys.exit(0 if report.ok else 1)

Rules (see :mod:`repro.lint.rules` and DESIGN.md §9):

=======  ==========================================================
OBL001   suppression comment without a reason
OBL002   unknown rule id in a suppression / unparsable file
OBL003   allowlist entry that matched nothing (warning)
OBL004   stray editor/merge artifact (*.tmp, *.orig, ...) in the tree
OBL101   plaintext key/value reaches a server-storage call
OBL102   plaintext key/value reaches a trace/log emission
OBL103   key-dependent branch guards server I/O
OBL201   wall-clock / raw monotonic read; obs.clock() outside obs,analysis
OBL202   unseeded random.Random() / stray SystemRandom
OBL203   module-level random.* call (shared global RNG)
OBL204   os.urandom outside crypto/
OBL205   hash-order-dependent iteration over a set
OBL301   concrete backend constructed inside core/ha
OBL302   socket use outside net/
OBL303   print() outside cli.py / dashboard
OBL304   store delete bypassing the commit_round contract
OBL305   native crypto wheel (nacl/cryptography) imported anywhere
OBL401   lock-owning class mutates shared state without its lock
OBL501   missing annotations anywhere in the repro package
=======  ==========================================================
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.engine import (
    AllowlistEntry,
    Finding,
    LintEngine,
    LintReport,
    Module,
    Rule,
    load_allowlist,
)
from repro.lint.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "AllowlistEntry",
    "Finding",
    "LintEngine",
    "LintReport",
    "Module",
    "Rule",
    "default_rules",
    "find_allowlist",
    "load_allowlist",
    "run_lint",
]

ALLOWLIST_NAME = ".oblint.json"


def find_allowlist(start: str | Path) -> Path | None:
    """Walk up from ``start`` looking for the repo-level allowlist."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        path = candidate / ALLOWLIST_NAME
        if path.is_file():
            return path
    return None


def run_lint(paths: Iterable[str | Path],
             allowlist: str | Path | Sequence[AllowlistEntry] | None = None,
             rules: Sequence[Rule] | None = None) -> LintReport:
    """Lint ``paths`` with the default rule set.

    ``allowlist`` may be a path to ``.oblint.json``, pre-loaded entries,
    or ``None`` to auto-discover the file above the first path.
    """
    paths = list(paths)
    if allowlist is None:
        found = find_allowlist(paths[0]) if paths else None
        entries: Sequence[AllowlistEntry] = (
            load_allowlist(found) if found else ())
    elif isinstance(allowlist, (str, Path)):
        entries = load_allowlist(allowlist)
    else:
        entries = allowlist
    engine = LintEngine(default_rules(), entries)
    return engine.run(paths)
