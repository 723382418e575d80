"""Typing-completeness rule over the whole ``repro`` package.

CI runs ``mypy --strict`` on ``crypto/``, ``core/``, ``ds/``,
``storage/`` and ``net/``; this rule is the local, dependency-free proxy
for the two strict flags that catch the most regressions —
``disallow_untyped_defs`` and ``disallow_incomplete_defs`` — over every
module of ``repro`` (the CLI and ``bench/`` included), so a missing
annotation fails ``repro.cli lint`` on the developer's machine even when
mypy is not installed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Module, Rule

__all__ = ["TypingCompletenessRule"]

#: A file outside a package (a script, an unhomed fixture) is not gated.
_GATED = "repro/"


class TypingCompletenessRule(Rule):
    id = "OBL501"
    name = "typing-completeness"
    description = ("every def in the repro package must annotate all "
                   "parameters and its return type")

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.relpath.startswith(_GATED):
            return
        for parent, fn in self._methods(module.tree):
            missing = self._missing(fn, is_method=isinstance(
                parent, ast.ClassDef))
            if missing:
                yield module.finding(
                    self, fn,
                    f"def {fn.name}(...) missing annotations for "
                    f"{', '.join(missing)}; mypy --strict will reject it")

    @staticmethod
    def _methods(tree: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
        stack: list[tuple[ast.AST, ast.AST]] = [(tree, tree)]
        while stack:
            parent, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    yield node, child
                    stack.append((node, child))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, child))
                else:
                    stack.append((parent, child))

    @staticmethod
    def _missing(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 is_method: bool) -> list[str]:
        missing: list[str] = []
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        skip_first = is_method and positional and positional[0].arg in (
            "self", "cls")
        for i, arg in enumerate(positional):
            if i == 0 and skip_first:
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        has_params = bool(positional[1:] if skip_first else positional) \
            or bool(args.kwonlyargs) or args.vararg or args.kwarg
        # mypy --strict accepts `def __init__(self, x: int):` without a
        # return annotation, but a zero-arg __init__ needs `-> None`.
        init_exempt = fn.name == "__init__" and has_params
        if fn.returns is None and not init_exempt:
            missing.append("return")
        return missing
