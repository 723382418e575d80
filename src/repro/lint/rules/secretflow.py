"""Secret-flow taint rules: plaintext keys never reach the server's view.

Theorem 5.1's argument is that the adversary-visible sequence — storage
ids, batch contents, timing — is computable without the plaintext keys.
These rules run an intra-procedural taint analysis over ``core/`` and
``baselines/``: plaintext keys/values are **sources**, the PRF/AEAD
kernels are **sanitizers**, and server-storage calls, trace/log emission,
and branches guarding server I/O are **sinks**.

Taint is two bits per variable, which is what makes the analysis usable
on the real proxy: for the round's ``read_batch = {sid: key}`` dict the
*keys* (what ``sorted(read_batch)`` yields and what the server sees) are
PRF outputs and clean, while the *values* are plaintext keys and tainted.
A single-bit analysis would poison the whole dict and flag the honest
``multi_get(sorted(read_batch))`` hot path.

* ``ELEMS`` — the taint of what iteration over the value yields
  (dict keys, list/set elements; for scalars, the value itself);
* ``VALUES`` — the taint of what subscripting yields (dict values;
  equal to ``ELEMS`` for everything else).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Module, Rule
from repro.lint.rules._util import receiver_name, walk_functions

__all__ = [
    "SecretToServerRule",
    "SecretToTraceRule",
    "TaintedBranchRule",
]

ELEMS = 1
VALUES = 2
BOTH = ELEMS | VALUES

_SCOPES = ("repro/core/", "repro/baselines/")

#: Parameter names that carry plaintext keys or values.
_SOURCE_PARAMS = {
    "key", "keys", "items", "plaintext", "plaintexts",
    "value", "values", "request", "requests",
}
#: Attribute loads that yield plaintext (e.g. ``op.key``).
_SOURCE_ATTRS = {"key", "plaintext"}
#: Calls that *produce* plaintext from ciphertext.
_SOURCE_CALLS = {"decrypt", "decrypt_many"}

#: Calls whose output is sanctified: PRF-derived ids, AEAD ciphertext,
#: and the codebase's id-encoding helpers built on them.
_SANITIZERS = {
    "derive", "derive_many", "derive_bytes", "derive_batch",
    "encrypt", "encrypt_many", "seal", "seal_many",
    "_encode_id", "_encode_ids", "_get_index", "_seal_load",
    "hexdigest", "digest", "hash_key",
}

#: Pure helpers that never launder taint but also never create it.
_CLEAN_BUILTINS = {
    "len", "range", "int", "float", "bool", "str", "isinstance", "min",
    "max", "sum", "abs", "id", "repr", "type", "round", "divmod",
}

_SERVER_METHODS = {
    "get", "put", "delete", "multi_get", "multi_put", "multi_delete",
    "commit_round", "execute",
}
_STOREISH = ("store", "backend", "server", "redis", "inner", "storage")

_TRACE_METHODS = {"event", "close_span", "observe_span",
                  "observe_kernel", "debug", "info", "warning", "log"}
_TRACEISH = ("obs", "tracer", "trace", "log", "logger")


def _is_server_sink(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute)
            and func.attr in _SERVER_METHODS):
        return False
    recv = receiver_name(func)
    return bool(recv) and any(s in recv.lower() for s in _STOREISH)


def _is_trace_sink(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute)
            and func.attr in _TRACE_METHODS):
        return False
    recv = receiver_name(func)
    return bool(recv) and any(s in recv.lower() for s in _TRACEISH)


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _FunctionTaint:
    """Intra-procedural two-bit taint over one function body."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.fn = fn
        self.env: dict[str, int] = {}
        self.kinds: dict[str, str] = {}  # name -> "dict" | "seq"
        self.server_sinks: list[tuple[ast.Call, str]] = []
        self.trace_sinks: list[tuple[ast.Call, str]] = []
        self.tainted_guards: list[ast.stmt] = []
        self._collect = False
        self._seed_params()

    def _seed_params(self) -> None:
        args = self.fn.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in _SOURCE_PARAMS:
                self.env[arg.arg] = BOTH

    def run(self) -> None:
        # Two passes: the first stabilises taint through loops (a value
        # tainted late in the body flows into uses earlier in the next
        # iteration); the second collects findings.
        self._execute(self.fn.body)
        self._collect = True
        self._execute(self.fn.body)

    # ------------------------------------------------------------------
    # expression taint
    # ------------------------------------------------------------------
    def taint(self, node: ast.AST | None) -> int:
        if node is None or isinstance(node, ast.Constant):
            return 0
        if isinstance(node, ast.Name):
            return self.env.get(node.id, 0)
        if isinstance(node, ast.Attribute):
            mask = BOTH if node.attr in _SOURCE_ATTRS else 0
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                return mask | self.env.get(f"self.{node.attr}", 0)
            return mask | self._scalar(self.taint(base))
        if isinstance(node, ast.Subscript):
            base_mask = self.taint(node.value)
            kind = self._kind_of(node.value)
            bit = VALUES if kind == "dict" else ELEMS
            return BOTH if base_mask & bit else 0
        if isinstance(node, (ast.BinOp,)):
            return self._scalar(self.taint(node.left)
                                | self.taint(node.right))
        if isinstance(node, ast.BoolOp):
            mask = 0
            for value in node.values:
                mask |= self.taint(value)
            return self._scalar(mask)
        if isinstance(node, ast.UnaryOp):
            return self._scalar(self.taint(node.operand))
        if isinstance(node, ast.Compare):
            mask = self.taint(node.left)
            for comp in node.comparators:
                mask |= self.taint(comp)
            return self._scalar(mask)
        if isinstance(node, ast.IfExp):
            return self.taint(node.body) | self.taint(node.orelse)
        if isinstance(node, ast.JoinedStr):
            mask = 0
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    mask |= self.taint(value.value)
            return self._scalar(mask)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            mask = 0
            for element in node.elts:
                if isinstance(element, ast.Starred):
                    mask |= self.taint(element.value) & ELEMS and BOTH
                else:
                    mask |= self._scalar(self.taint(element))
            return mask
        if isinstance(node, ast.Dict):
            mask = 0
            for key in node.keys:
                if key is not None and self.taint(key):
                    mask |= ELEMS
            for value in node.values:
                if self.taint(value):
                    mask |= VALUES
            return mask
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp_taint(node)
        if isinstance(node, ast.DictComp):
            return self._dictcomp_taint(node)
        if isinstance(node, ast.Starred):
            return self.taint(node.value)
        if isinstance(node, ast.Await):
            return self.taint(node.value)
        if isinstance(node, ast.NamedExpr):
            mask = self.taint(node.value)
            self.env[node.target.id] = mask
            return mask
        # Conservative default: union of child taints, scalarised.
        mask = 0
        for child in ast.iter_child_nodes(node):
            mask |= self.taint(child)
        return self._scalar(mask)

    def _call_taint(self, call: ast.Call) -> int:
        name = _callee_name(call)
        if name in _SANITIZERS:
            return 0
        if name in _SOURCE_CALLS:
            return BOTH
        if name in _CLEAN_BUILTINS:
            return 0
        if name in {"sorted", "list", "tuple", "set", "frozenset",
                    "iter", "reversed"}:
            arg_mask = self.taint(call.args[0]) if call.args else 0
            return BOTH if arg_mask & ELEMS else 0
        if name == "enumerate":
            arg_mask = self.taint(call.args[0]) if call.args else 0
            return BOTH if arg_mask & ELEMS else 0
        if name == "zip":
            mask = 0
            for arg in call.args:
                mask |= self.taint(arg)
            return BOTH if mask & ELEMS else 0
        if name in {"items", "keys", "values"} and isinstance(
                call.func, ast.Attribute):
            base_mask = self.taint(call.func.value)
            if name == "items":
                return base_mask
            bit = ELEMS if name == "keys" else VALUES
            return BOTH if base_mask & bit else 0
        if name in {"pop", "popleft", "popitem"} and isinstance(
                call.func, ast.Attribute):
            base_mask = self.taint(call.func.value)
            kind = self._kind_of(call.func.value)
            bit = VALUES if kind == "dict" and name == "pop" else ELEMS
            return BOTH if base_mask & bit else 0
        # Unknown call: propagate the union of receiver and arg taints.
        mask = 0
        if isinstance(call.func, ast.Attribute):
            mask |= self.taint(call.func.value)
        for arg in call.args:
            mask |= self.taint(arg)
        for keyword in call.keywords:
            mask |= self.taint(keyword.value)
        return self._scalar(mask)

    def _comp_taint(self, comp: ast.AST) -> int:
        saved = dict(self.env)
        for generator in comp.generators:  # type: ignore[attr-defined]
            self._bind_loop_target(generator.target, generator.iter)
        element = self.taint(comp.elt)  # type: ignore[attr-defined]
        self.env = saved
        return BOTH if element else 0

    def _dictcomp_taint(self, comp: ast.DictComp) -> int:
        saved = dict(self.env)
        for generator in comp.generators:
            self._bind_loop_target(generator.target, generator.iter)
        mask = 0
        if self.taint(comp.key):
            mask |= ELEMS
        if self.taint(comp.value):
            mask |= VALUES
        self.env = saved
        return mask

    @staticmethod
    def _scalar(mask: int) -> int:
        return BOTH if mask else 0

    def _kind_of(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            return self.kinds.get(f"self.{node.attr}")
        return None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _execute(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # analysed as their own scope
        self._scan_sinks(stmt)
        if isinstance(stmt, ast.Assign):
            mask = self.taint(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, stmt.value, mask)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, stmt.value,
                                  self.taint(stmt.value))
            self._note_annotation_kind(stmt)
        elif isinstance(stmt, ast.AugAssign):
            mask = self._scalar(self.taint(stmt.value))
            name = self._target_name(stmt.target)
            if name:
                self.env[name] = self.env.get(name, 0) | mask
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt.target, stmt.iter)
            self._execute(stmt.body)
            self._execute(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            test_mask = self.taint(stmt.test)
            if test_mask and self._collect and \
                    self._guards_server_io(stmt.body):
                self.tainted_guards.append(stmt)
            self._execute(stmt.body)
            self._execute(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, item.context_expr,
                                      self.taint(item.context_expr))
            self._execute(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._execute(stmt.body)
            for handler in stmt.handlers:
                self._execute(handler.body)
            self._execute(stmt.orelse)
            self._execute(stmt.finalbody)

    def _note_annotation_kind(self, stmt: ast.AnnAssign) -> None:
        name = self._target_name(stmt.target)
        if not name:
            return
        note = ast.dump(stmt.annotation).lower()
        if "'dict'" in note:
            self.kinds[name] = "dict"
        elif "'list'" in note or "'set'" in note or "'deque'" in note:
            self.kinds[name] = "seq"

    def _bind_target(self, target: ast.AST, value: ast.AST | None,
                     mask: int) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = mask
            if value is not None:
                self._note_kind(target.id, value)
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            self.env[f"self.{target.attr}"] = mask
            if value is not None:
                self._note_kind(f"self.{target.attr}", value)
        elif isinstance(target, ast.Subscript):
            # d[k] = v taints the container's key/value compartments.
            base = self._target_name(target.value)
            if base is None:
                return
            kind = self.kinds.get(base)
            add = 0
            if self.taint(target.slice):
                add |= ELEMS
            if mask:
                add |= VALUES if kind == "dict" else ELEMS
            self.env[base] = self.env.get(base, 0) | add
        elif isinstance(target, (ast.Tuple, ast.List)):
            self._bind_unpack(target, value, mask)

    def _bind_unpack(self, target: ast.Tuple | ast.List,
                     value: ast.AST | None, mask: int) -> None:
        # Positional special cases: zip / items / enumerate yield tuples
        # whose members carry *different* compartments of taint.
        per_slot: list[int] | None = None
        if isinstance(value, ast.Call):
            name = _callee_name(value)
            if name == "zip":
                per_slot = [BOTH if self.taint(a) & ELEMS else 0
                            for a in value.args]
            elif name == "enumerate" and value.args:
                inner = self.taint(value.args[0])
                per_slot = [0, BOTH if inner & ELEMS else 0]
            elif name == "items" and isinstance(value.func, ast.Attribute):
                base_mask = self.taint(value.func.value)
                per_slot = [BOTH if base_mask & ELEMS else 0,
                            BOTH if base_mask & VALUES else 0]
        for i, element in enumerate(target.elts):
            if per_slot is not None and i < len(per_slot):
                self._bind_target(element, None, per_slot[i])
            else:
                self._bind_target(element, None, self._scalar(mask))

    def _bind_loop_target(self, target: ast.AST, iterable: ast.AST) -> None:
        iter_mask = self.taint(iterable)
        if isinstance(target, (ast.Tuple, ast.List)):
            self._bind_unpack(target, iterable,
                              BOTH if iter_mask & ELEMS else 0)
        else:
            self._bind_target(target, None,
                              BOTH if iter_mask & ELEMS else 0)

    @staticmethod
    def _target_name(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            return f"self.{node.attr}"
        return None

    def _note_kind(self, name: str, value: ast.AST) -> None:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            self.kinds[name] = "dict"
        elif isinstance(value, ast.Call) and \
                _callee_name(value) in {"dict", "defaultdict",
                                        "OrderedDict", "Counter"}:
            self.kinds[name] = "dict"
        elif isinstance(value, (ast.List, ast.Set, ast.ListComp,
                                ast.SetComp)):
            self.kinds[name] = "seq"
        elif isinstance(value, ast.Call) and \
                _callee_name(value) in {"list", "set", "sorted", "deque",
                                        "tuple"}:
            self.kinds[name] = "seq"

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def _scan_sinks(self, stmt: ast.stmt) -> None:
        if not self._collect:
            return
        for node in self._own_calls(stmt):
            if _is_server_sink(node):
                for arg in (*node.args,
                            *(k.value for k in node.keywords)):
                    if self.taint(arg) & ELEMS:
                        self.server_sinks.append((node, ast.unparse(arg)))
                        break
            elif _is_trace_sink(node):
                for arg in (*node.args,
                            *(k.value for k in node.keywords)):
                    if self.taint(arg):
                        self.trace_sinks.append((node, ast.unparse(arg)))
                        break

    @staticmethod
    def _own_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
        """Call nodes in this statement, excluding nested compound bodies
        (those are visited when _execute recurses into them)."""
        compound_blocks: set[int] = set()
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(stmt, field_name, None)
            if isinstance(block, list):
                for sub in block:
                    compound_blocks.update(
                        id(n) for n in ast.walk(sub))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and id(node) not in compound_blocks:
                yield node

    def _guards_server_io(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_server_sink(node):
                    return True
        return False


class _TaintRuleBase(Rule):
    def _analyses(self, module: Module) -> Iterator[_FunctionTaint]:
        if not module.relpath.startswith(_SCOPES):
            return
        for fn in walk_functions(module.tree):
            analysis = _FunctionTaint(fn)
            analysis.run()
            yield analysis


class SecretToServerRule(_TaintRuleBase):
    id = "OBL101"
    name = "secret-to-server"
    description = ("a plaintext key/value reaches a server-storage call "
                   "without passing through crypto.prf/crypto.aead: the "
                   "adversary-visible id stream is key-dependent")

    def check(self, module: Module) -> Iterator[Finding]:
        for analysis in self._analyses(module):
            for call, arg_src in analysis.server_sinks:
                yield module.finding(
                    self, call,
                    f"tainted argument {arg_src!r} flows into a server "
                    "storage call; route ids through crypto.prf and "
                    "payloads through crypto.aead first")


class SecretToTraceRule(_TaintRuleBase):
    id = "OBL102"
    name = "secret-to-trace"
    description = ("a plaintext key/value reaches a trace/log emission; "
                   "obs output is exportable and must stay key-neutral")

    def check(self, module: Module) -> Iterator[Finding]:
        for analysis in self._analyses(module):
            for call, arg_src in analysis.trace_sinks:
                yield module.finding(
                    self, call,
                    f"tainted value {arg_src!r} flows into a trace/log "
                    "call; emit counts or PRF-derived ids only")


class TaintedBranchRule(_TaintRuleBase):
    id = "OBL103"
    name = "tainted-branch-io"
    description = ("server I/O guarded by a key-dependent condition: "
                   "whether the access happens leaks the predicate "
                   "(the data-dependent-branch failure class)")

    def check(self, module: Module) -> Iterator[Finding]:
        for analysis in self._analyses(module):
            for stmt in analysis.tainted_guards:
                yield module.finding(
                    self, stmt,
                    "branch condition derived from a plaintext key guards "
                    "a server storage call; server I/O per round must be "
                    "unconditional (B reads + B writes)")
