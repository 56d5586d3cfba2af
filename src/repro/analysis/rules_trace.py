"""RL005 — trace immutability: ``CompiledTrace`` columns are frozen.

The zero-copy data plane hands the *same* column objects to many
readers: ``WorkloadStore`` serves one LRU-cached spec to every task a
worker runs, ``from_buffer`` columns are read-only memoryviews over
a shared mmap, and the vectorized executor's leader walks columns that
every forked replica also sees.  One in-place write —
``trace.ops[i] = x``, ``trace.args.frombytes(...)`` — would therefore
corrupt *other* runs' inputs (or die with ``TypeError: cannot modify
read-only memory`` only on the mmap path, i.e. only sometimes).

The contract: columns are built exclusively through ``TraceBuilder``
and are immutable afterwards.  This rule bans, everywhere outside
``trace.py`` (the builder's home, where ``from_bytes`` legitimately
fills fresh local arrays):

* subscript assignment / augmented assignment / deletion through an
  ``.ops`` / ``.args`` attribute (``<expr>.ops[i] = v``);
* calling a mutating sequence method on such an attribute
  (``<expr>.args.append(v)``, ``.frombytes``, ``.byteswap``, ...).

Plain attribute *rebinding* (``trace.ops = view.cast(...)`` in
``trace.py``, ``DurableCall.args = args``) stays legal: it replaces the
reference, never the shared buffer.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import Finding, ModuleContext, Rule

#: The frozen column attributes of the trace IR.
_COLUMNS = ("ops", "args")

#: In-place mutators of array/list/memoryview receivers.
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "reverse",
    "sort", "frombytes", "fromlist", "fromunicode", "byteswap",
    "release",
})


def _column_attr(node: ast.expr) -> str:
    """``"ops"``/``"args"`` when ``node`` is an ``<expr>.ops``-style
    attribute access (any receiver expression), else ``""``.  Bare
    names (a local ``ops`` array under construction) never match."""
    if isinstance(node, ast.Attribute) and node.attr in _COLUMNS:
        return node.attr
    return ""


class _TraceMutationVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    def _flag(self, lineno: int, what: str) -> None:
        self.findings.append(Finding(
            self.ctx.relpath, lineno, "RL005",
            f"{what}; CompiledTrace columns are immutable outside "
            f"TraceBuilder (shared via the store LRU, mmap views and "
            f"batch leaders — an in-place write corrupts other runs)"))

    def _check_target(self, target: ast.expr, verb: str) -> None:
        if isinstance(target, ast.Subscript):
            attr = _column_attr(target.value)
            if attr:
                self._flag(target.lineno,
                           f"{verb} of a .{attr} trace column element")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, "deletion")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = _column_attr(func.value)
            if attr:
                self._flag(node.lineno,
                           f"mutating call .{attr}.{func.attr}() on a "
                           f"trace column")
        self.generic_visit(node)


class TraceImmutabilityRule(Rule):
    code = "RL005"
    name = "trace-immutability"
    description = ("no in-place mutation of CompiledTrace .ops/.args "
                   "columns outside trace.py — specs are shared across "
                   "runs (store LRU, mmap views, batch leaders)")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.relpath == "trace.py":
            return iter(())
        visitor = _TraceMutationVisitor(ctx)
        visitor.visit(ctx.tree)
        return iter(visitor.findings)
