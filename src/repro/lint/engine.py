"""The ``oblint`` engine: file discovery, suppressions, report.

``oblint`` is a domain-specific static-analysis suite that proves (at
lint time) the invariants Waffle's security argument rests on: the
adversary-visible access sequence must be independent of plaintext keys
(Theorem 5.1), replay must be deterministic (the chaos harness's
differential oracle re-executes episodes from a seed), and every server
access must flow through the recording wrapper / ``commit_round``
contract.  The chaos oracle checks these properties on sampled episodes
at runtime; ``oblint`` enforces them on every commit over the whole
source tree.

Architecture
------------
* a :class:`Rule` is a plugin: an id (``OBL...``), a severity, a
  description, and a ``check(module)`` generator producing
  :class:`Finding` objects;
* the :class:`LintEngine` parses each file once into a :class:`Module`
  (AST + source + comment-derived suppressions) and runs every rule;
* findings are filtered through **inline suppressions**
  (``# oblint: disable=RULE -- reason``, same line), the only exception
  mechanism; a reasonless suppression is itself reported (``OBL001``).

The suppression policy is deliberately strict: every exception to a
security invariant must state its security argument in the place the
exception is made, so reviewers see the claim next to the code it
covers (DESIGN.md §9).  A stray artifact file (``OBL004``) has no line
to carry a suppression, so it has no exception at all.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "Module",
    "Rule",
]

#: ``# oblint: disable=OBL201,OBL303 -- reason`` (reason mandatory; the
#: separator accepts an em dash or two or more ASCII hyphens).
_SUPPRESSION_RE = re.compile(
    r"#\s*oblint:\s*disable=([A-Z0-9,\s]+?)\s*(?:(?:—|–|--+)\s*(.*))?$"
)

#: ``# oblint-fixture-path: repro/core/planted.py`` — lets test fixtures
#: pretend to live at a path so path-scoped rules apply to them.
_FIXTURE_PATH_RE = re.compile(r"#\s*oblint-fixture-path:\s*(\S+)")

#: Editor/merge droppings that must never be committed to a linted tree
#: (OBL004); a stray ``.tmp`` next to a module is dead code waiting to be
#: confused with the real thing.
_ARTIFACT_PATTERNS = ("*.tmp", "*.orig", "*.rej", "*.bak")

#: Findings the engine emits itself (no :class:`Rule` plugin): OBL001/2
#: suppression hygiene, OBL004 stray artifact files.  Registered as
#: known ids so suppressing them is not itself flagged as an unknown rule.
_ENGINE_RULE_IDS = frozenset({"OBL001", "OBL002", "OBL004"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # module-relative posix path, e.g. "repro/core/proxy.py"
    line: int
    col: int
    message: str
    severity: str = "error"  # "error" | "warning"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity} {self.rule}: {self.message}")


@dataclass(frozen=True)
class _Suppression:
    rules: tuple[str, ...]
    reason: str
    line: int


class Module:
    """One parsed source file handed to every rule."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.relpath = relpath
        self.suppressions: dict[int, list[_Suppression]] = {}
        self._scan_comments()

    def _comments(self) -> Iterator[tuple[int, str]]:
        """Yield (lineno, text) for real COMMENT tokens only — docstrings
        and string literals mentioning the syntax must not count."""
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except tokenize.TokenError:  # pragma: no cover - parse caught it
            return

    def _scan_comments(self) -> None:
        for lineno, text in self._comments():
            override = _FIXTURE_PATH_RE.search(text)
            if override:
                #: Fixtures may re-home themselves so path-scoped rules
                #: apply: ``# oblint-fixture-path: repro/core/planted.py``.
                self.relpath = override.group(1)
            if "oblint" not in text:
                continue
            match = _SUPPRESSION_RE.search(text)
            if not match:
                continue
            rules = tuple(
                r.strip() for r in match.group(1).split(",") if r.strip()
            )
            reason = (match.group(2) or "").strip()
            self.suppressions.setdefault(lineno, []).append(
                _Suppression(rules=rules, reason=reason, line=lineno)
            )

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``node`` under ``rule``."""
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=rule.severity,
        )


class Rule:
    """Base class every lint rule plugs into the engine with.

    Subclasses set :attr:`id` (``OBLnnn``), :attr:`name` (a short slug
    used in reports), :attr:`severity` and :attr:`description`, and
    implement :meth:`check`.
    """

    id = "OBL000"
    name = "abstract-rule"
    severity = "error"
    description = ""

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.id} {self.name}>"


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    files_checked: int = 0
    rules_run: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule))]
        lines.append(
            f"oblint: {self.files_checked} files, {self.rules_run} rules: "
            f"{len(self.errors)} error(s), "
            f"{len(self.findings) - len(self.errors)} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "files_checked": self.files_checked,
            "rules_run": self.rules_run,
            "findings": [vars(f) for f in self.findings],
            "suppressed": [
                {"finding": vars(f), "reason": reason}
                for f, reason in self.suppressed
            ],
        }


class LintEngine:
    """Runs a rule set over a source tree and filters the findings."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {ids}")
        self.rules = list(rules)
        self.known_ids = set(ids) | set(_ENGINE_RULE_IDS)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    @staticmethod
    def discover(paths: Iterable[str | Path]) -> list[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: set[Path] = set()
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.update(p for p in path.rglob("*.py")
                             if "__pycache__" not in p.parts)
            elif path.suffix == ".py":
                files.add(path)
        return sorted(files)

    @staticmethod
    def _relpath(path: Path) -> str:
        """Module-relative posix path: everything from the top package.

        ``/repo/src/repro/core/proxy.py`` -> ``repro/core/proxy.py``;
        files outside a package keep their file name.
        """
        resolved = path.resolve()
        parts = list(resolved.parts)
        top = len(parts) - 1
        for i in range(len(parts) - 2, -1, -1):
            if (Path(*parts[: i + 1]) / "__init__.py").exists():
                top = i
            else:
                break
        return "/".join(parts[top:])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def _stray_artifacts(paths: Iterable[str | Path]) -> list[Path]:
        """Artifact files (``*.tmp``/``*.orig``/...) under ``paths``."""
        found: set[Path] = set()
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                for pattern in _ARTIFACT_PATTERNS:
                    found.update(p for p in path.rglob(pattern)
                                 if "__pycache__" not in p.parts)
            elif path.exists() and any(
                    fnmatch.fnmatchcase(path.name, pattern)
                    for pattern in _ARTIFACT_PATTERNS):
                found.add(path)
        return sorted(found)

    def run(self, paths: Iterable[str | Path]) -> LintReport:
        report = LintReport(rules_run=len(self.rules))
        # OBL004: artifact files are findings even though they are not
        # Python modules, so they carry no inline suppression and have
        # no exception.
        for stray in self._stray_artifacts(paths):
            report.findings.append(Finding(
                rule="OBL004", path=self._relpath(stray), line=1, col=1,
                message=(f"stray editor/merge artifact {stray.name!r} "
                         "committed to the tree; delete it")))
        for path in self.discover(paths):
            source = path.read_text(encoding="utf-8")
            try:
                module = Module(path, self._relpath(path), source)
            except SyntaxError as error:
                report.findings.append(Finding(
                    rule="OBL002", path=self._relpath(path),
                    line=error.lineno or 1, col=(error.offset or 0) + 1,
                    message=f"file does not parse: {error.msg}"))
                report.files_checked += 1
                continue
            report.files_checked += 1
            self._check_suppression_hygiene(module, report)
            for rule in self.rules:
                for finding in rule.check(module):
                    self._file_finding(module, finding, report)
        return report

    @staticmethod
    def _file_finding(module: Module, finding: Finding,
                      report: LintReport) -> None:
        for suppression in module.suppressions.get(finding.line, []):
            if finding.rule in suppression.rules and suppression.reason:
                report.suppressed.append((finding, suppression.reason))
                return
        report.findings.append(finding)

    def _check_suppression_hygiene(self, module: Module,
                                   report: LintReport) -> None:
        """OBL001: reasonless suppressions; OBL002: unknown rule ids."""
        for suppressions in module.suppressions.values():
            for suppression in suppressions:
                if not suppression.reason:
                    report.findings.append(Finding(
                        rule="OBL001", path=module.relpath,
                        line=suppression.line, col=1,
                        message=("suppression without a reason; write "
                                 "'# oblint: disable=RULE -- why this is "
                                 "safe'")))
                for rule_id in suppression.rules:
                    if rule_id not in self.known_ids:
                        report.findings.append(Finding(
                            rule="OBL002", path=module.relpath,
                            line=suppression.line, col=1,
                            message=f"unknown rule id {rule_id!r} in "
                                    "suppression"))
