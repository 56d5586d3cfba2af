"""RL001 — fork-safety: queue entries are plain data, never callbacks.

``Machine.fork`` (the vectorized campaign executor's replica spill)
clones the event queue; ``copy.deepcopy`` treats functions as atomic,
so a queued closure would keep firing into the *pre-fork* machine and
the replica's results would silently diverge.  The queue is C
(``mem_loop_t`` in ``memsys.c``) and every entry is plain data: a core
to run, a fault's index, a drain's core and checkpoint id, a pause.
Its entry points are ``push_drain`` and ``loop_push``; nothing may
bring a callback back onto it.  The machine has no closure entry point
and no runtime check, so this rule is the guard, inside ``repro.sim``
and ``repro.core``:

* any closure-scheduling call ``<obj>.schedule(...)``;
* a ``lambda`` argument to a queue entry point or a ``heappush``;
* a locally-defined function (a closure by construction) passed by
  name to a queue entry point or a ``heappush``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import Finding, ModuleContext, Rule

#: Callables whose arguments must stay closure-free: the machine's queue
#: entry points (``Machine.push_drain``, and ``loop_push`` under a
#: chosen seq) and raw ``heapq`` pushes.
_SINKS = ("push_drain", "loop_push", "heappush")


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _ForkSafetyVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: List[Finding] = []
        #: Names of functions defined inside an enclosing function —
        #: closures by construction, one scope set per nesting level.
        self._local_fns: list[set[str]] = []

    # -- scope tracking ----------------------------------------------------
    def _visit_function(self, node) -> None:
        if self._local_fns:
            self._local_fns[-1].add(node.name)
        self._local_fns.append(set())
        self.generic_visit(node)
        self._local_fns.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_local_fn(self, name: str) -> bool:
        return any(name in scope for scope in self._local_fns)

    # -- the checks --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "schedule" and isinstance(node.func, ast.Attribute):
            self.findings.append(Finding(
                self.ctx.relpath, node.lineno, "RL001",
                "closure scheduling (<obj>.schedule); queue a plain-data "
                "entry instead (deepcopy treats functions as atomic, so "
                "a closure would fire into the pre-fork machine)"))
        elif name in _SINKS:
            for arg in ast.walk(node):
                if isinstance(arg, ast.Lambda):
                    self.findings.append(Finding(
                        self.ctx.relpath, arg.lineno, "RL001",
                        f"lambda passed to {name}; queue entries must "
                        f"be plain data (deepcopy treats functions as "
                        f"atomic, breaking Machine.fork)"))
                elif isinstance(arg, ast.Name) \
                        and self._is_local_fn(arg.id):
                    self.findings.append(Finding(
                        self.ctx.relpath, arg.lineno, "RL001",
                        f"local function {arg.id!r} passed to {name}; "
                        f"queue entries must be plain data (a closure "
                        f"would fire into the pre-fork machine)"))
        self.generic_visit(node)


class ForkSafetyRule(Rule):
    code = "RL001"
    name = "fork-safety"
    description = ("no lambda/closure/local-function callbacks through "
                   "<obj>.schedule, push_drain, loop_push or heap pushes "
                   "in repro.sim / repro.core — queue entries are plain "
                   "data")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages("sim", "core"):
            return iter(())
        visitor = _ForkSafetyVisitor(ctx)
        visitor.visit(ctx.tree)
        return iter(visitor.findings)
