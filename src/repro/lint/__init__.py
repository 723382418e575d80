"""``oblint``: domain-specific static analysis for oblivious-protocol code.

Public surface::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    print(report.describe())                # doctest-style; CLI does this
    sys.exit(0 if report.ok else 1)

Rules (see :mod:`repro.lint.rules` and DESIGN.md §9):

=======  ==========================================================
OBL001   suppression comment without a reason
OBL002   unknown rule id in a suppression / unparsable file
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
OBL305   crypto wheel imported anywhere; ctypes outside crypto/
OBL401   lock-owning class mutates shared state without its lock
OBL501   missing annotations anywhere in the repro package
=======  ==========================================================
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.lint.engine import Finding, LintEngine, LintReport, Module, Rule
from repro.lint.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "LintReport",
    "Module",
    "Rule",
    "default_rules",
    "run_lint",
]


def run_lint(paths: Iterable[str | Path]) -> LintReport:
    """Lint ``paths`` with the default rule set.

    The only exception mechanism is an inline
    ``# oblint: disable=RULE -- reason`` on the finding's line.
    """
    return LintEngine(default_rules()).run(list(paths))
