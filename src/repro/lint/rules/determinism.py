"""Determinism rules: everything must replay bit-identically from a seed.

The chaos harness (PR 3) re-executes recorded episodes and compares the
adversary-visible trace against the original — a guarantee that is
fiction the moment any code path consults the wall clock, the process
RNG, or hash-seed-dependent iteration order.  These rules pin the whole
tree (not just ``core/``) to the sim clock and injected seeded
``random.Random`` instances.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Module, Rule
from repro.lint.rules._util import ImportMap, walk_functions, walk_scope

__all__ = [
    "SetIterationOrderRule",
    "UnseededRngRule",
    "UrandomOutsideCryptoRule",
    "WallClockRule",
    "WildRandomCallRule",
]

_WALLCLOCK = {
    "time.time": "time.time() reads the wall clock",
    "time.time_ns": "time.time_ns() reads the wall clock",
    "datetime.datetime.now": "datetime.now() reads the wall clock",
    "datetime.datetime.utcnow": "datetime.utcnow() reads the wall clock",
    "datetime.datetime.today": "datetime.today() reads the wall clock",
    "datetime.date.today": "date.today() reads the wall clock",
}

#: Raw monotonic reads: not wall-clock, but still host time — protocol
#: code that branches on them stops replaying.  The one sanctioned
#: funnel is ``repro.obs.clock()``, itself allowed only where timestamps
#: are observation, not protocol input.
_MONOTONIC = {
    "time.monotonic": "time.monotonic() reads host time",
    "time.monotonic_ns": "time.monotonic_ns() reads host time",
}

#: Where the sanctioned ``repro.obs.clock`` funnel may be called: the
#: observability layer itself and the analysis observers that timestamp
#: adversary-visible instants (the timing-leakage observatory).
_CLOCK_OK = ("repro/obs/", "repro/analysis/")

#: Constructors/attributes on ``random`` that are fine when seeded.
_RNG_CLASSES = {"Random", "SystemRandom"}


class WallClockRule(Rule):
    id = "OBL201"
    name = "wallclock"
    description = ("wall-clock and raw monotonic reads (time.time, "
                   "datetime.now, time.monotonic, ...) break chaos replay; "
                   "use the sim clock, time.perf_counter for local "
                   "measurement, or obs.clock() (obs/ and analysis/ only) "
                   "for observation timestamps")

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in _WALLCLOCK:
                yield module.finding(
                    self, node,
                    f"{_WALLCLOCK[resolved]}; replay is no longer "
                    "deterministic — route through the sim clock")
            elif resolved in _MONOTONIC:
                # obs/ implements the sanctioned funnel, so the raw read
                # is allowed there and nowhere else.
                if not module.relpath.startswith("repro/obs/"):
                    yield module.finding(
                        self, node,
                        f"{_MONOTONIC[resolved]}; observation timestamps "
                        "go through repro.obs.clock(), protocol time "
                        "through the sim clock")
            elif resolved == "repro.obs.clock":
                if not module.relpath.startswith(_CLOCK_OK):
                    yield module.finding(
                        self, node,
                        "obs.clock() is sanctioned only inside obs/ and "
                        "analysis/ (observation timestamps); protocol "
                        "code must use the sim clock")


class UnseededRngRule(Rule):
    id = "OBL202"
    name = "unseeded-rng"
    description = ("random.Random() without an explicit seed (or seeded "
                   "with None) draws from OS entropy; SystemRandom outside "
                   "crypto/ is never replayable")

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for scope, optional_params in self._scopes(module.tree):
            for node in walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                resolved = imports.resolve(node.func)
                if resolved == "random.Random":
                    if self._possibly_unseeded(node, optional_params):
                        yield module.finding(
                            self, node,
                            "random.Random() without a guaranteed seed; "
                            "pass a derived integer seed so chaos replay "
                            "is exact")
                elif resolved == "random.SystemRandom":
                    if not module.relpath.startswith("repro/crypto/"):
                        yield module.finding(
                            self, node,
                            "SystemRandom outside crypto/ cannot be "
                            "replayed; inject a seeded random.Random "
                            "instead")

    @staticmethod
    def _scopes(tree: ast.AST) -> Iterator[tuple[ast.AST, frozenset[str]]]:
        """Yield (scope, names-of-params-defaulting-to-None) pairs."""
        yield tree, frozenset()
        for node in walk_functions(tree):
            optional: set[str] = set()
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                if isinstance(default, ast.Constant) and default.value is None:
                    optional.add(arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if isinstance(default, ast.Constant) and default.value is None:
                    optional.add(arg.arg)
            yield node, frozenset(optional)

    @staticmethod
    def _possibly_unseeded(call: ast.Call,
                           optional_params: frozenset[str]) -> bool:
        if not call.args:
            return True
        seed = call.args[0]
        # `Random(seed)` where ``seed`` is a parameter defaulting to None
        # silently falls back to OS entropy for every caller that omits
        # it — the exact hole that makes "replay from a seed" fiction.
        if isinstance(seed, ast.Name) and seed.id in optional_params:
            return True
        # Likewise a literal None surviving anywhere in the expression,
        # e.g. `Random(None if seed is None else seed + 1)`.
        return any(isinstance(sub, ast.Constant) and sub.value is None
                   for sub in ast.walk(seed))


class WildRandomCallRule(Rule):
    id = "OBL203"
    name = "module-level-random"
    description = ("module-level random.* calls share mutable global state "
                   "across components; use an injected seeded "
                   "random.Random instance")

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if (resolved and resolved.startswith("random.")
                    and resolved.split(".", 1)[1] not in _RNG_CLASSES):
                yield module.finding(
                    self, node,
                    f"call to module-level {resolved}(); the global RNG is "
                    "shared process state — draw from an injected "
                    "random.Random(seed)")


class UrandomOutsideCryptoRule(Rule):
    id = "OBL204"
    name = "urandom-outside-crypto"
    description = ("os.urandom outside crypto/ injects fresh OS entropy "
                   "into protocol state, breaking replay; key material "
                   "generation in crypto/ is the one legitimate user")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.relpath.startswith("repro/crypto/"):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if imports.resolve(node.func) == "os.urandom":
                yield module.finding(
                    self, node,
                    "os.urandom outside crypto/; derive bytes from a "
                    "seeded RNG (rng.randbytes) or move into crypto/")


class SetIterationOrderRule(Rule):
    id = "OBL205"
    name = "set-iteration-order"
    description = ("iterating a set of ids depends on PYTHONHASHSEED for "
                   "str keys: two runs of the same episode emit requests "
                   "in different orders; wrap in sorted()")

    _CONVERTERS = {"list", "tuple"}
    _SET_MAKERS = {"set", "frozenset"}

    def check(self, module: Module) -> Iterator[Finding]:
        for fn_or_mod in self._scopes(module.tree):
            set_vars = self._set_vars(fn_or_mod)
            for node in self._iter_sites(fn_or_mod):
                target = self._iter_expr(node)
                if target is None:
                    continue
                if self._is_set_expr(target, set_vars):
                    yield module.finding(
                        self, node,
                        "iteration over a set is hash-order dependent; "
                        "wrap the set in sorted() for a canonical order")

    @staticmethod
    def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
        yield tree
        yield from walk_functions(tree)

    def _set_vars(self, scope: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                if self._makes_set(node.value):
                    names.add(node.targets[0].id)
                else:
                    names.discard(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                note = ast.dump(node.annotation)
                if "'set'" in note or "'Set'" in note:
                    names.add(node.target.id)
        return names

    def _makes_set(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id in self._SET_MAKERS:
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._makes_set(expr.left) or self._makes_set(expr.right)
        return False

    @staticmethod
    def _iter_sites(scope: ast.AST) -> Iterator[ast.AST]:
        for node in walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id in {"list", "tuple"}:
                yield node
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                yield node

    @staticmethod
    def _iter_expr(node: ast.AST) -> ast.AST | None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return node.iter
        if isinstance(node, ast.Call) and node.args:
            return node.args[0]
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            return node.generators[0].iter
        return None

    def _is_set_expr(self, expr: ast.AST, set_vars: set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in set_vars
        if self._makes_set(expr):
            return True
        return False
