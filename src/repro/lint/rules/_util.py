"""Shared AST helpers for oblint rules."""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["ImportMap", "dotted_name", "receiver_name", "walk_functions",
           "walk_scope"]


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    yield scope
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_name(func: ast.AST) -> str | None:
    """For ``a.b.method(...)`` return ``b`` — the immediate receiver."""
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Attribute):
            return base.attr
        if isinstance(base, ast.Name):
            return base.id
    return None


class ImportMap:
    """Alias resolution for a module: maps local names to dotted origins.

    ``import random as r`` -> ``r`` resolves to ``random``;
    ``from os import urandom`` -> ``urandom`` resolves to ``os.urandom``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain through the import aliases."""
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin


def walk_functions(
        tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Yield every (Async)FunctionDef in the tree, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
