"""RL006 — cache ownership: no cache pokes outside ``coherence``/``mem``.

:class:`~repro.coherence.protocol.CoherenceEngine` is the only writer of
cache and directory state: hits, fills, evictions, invalidations,
downgrades and delayed writebacks all happen inside it, and each one
updates the directory (sharers, owner, LW-ID), the private caches'
residency and the per-class counters together.  A scheme that reaches
into ``engine.l2s[pid]`` and invalidates a line directly, or flips a
``CacheLine``/``DirEntry`` field in place, changes one of those behind
the others' back: the directory would name a sharer that no longer
holds the line, or the hit/miss and energy counters would stop adding
up.

This rule bans, everywhere outside the ``coherence`` and ``mem``
packages (the engine and the caches themselves):

* calling a residency-mutating cache method (``insert``,
  ``invalidate``, ``invalidate_all``, ``fill``) on a receiver that
  reaches through an ``l1s``/``l2s`` attribute
  (``machine.engine.l2s[pid].invalidate(addr)``);
* assigning or aug-assigning a line/directory state field (``state``,
  ``dirty``, ``delayed``, ``value``, ``lw_id``, ``owner``, ``sharers``,
  ``mode``) through an ``l1s``/``l2s``/``directory`` receiver
  (``engine.l2s[pid].peek(addr).delayed = False``).

Mutations through a bare local (``line.value = v`` after the engine
handed the line out) stay legal: the engine-side call that produced the
local is the audited entry point.  Schemes change residency only by
calling engine services (``checkpoint_writeback``, ``mark_delayed``,
``invalidate_core``, ...), never by poking cache internals.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import Finding, ModuleContext, Rule

#: Attributes naming the private cache arrays / directory on the engine.
_CACHE_ROOTS = frozenset({"l1s", "l2s", "directory"})

#: Cache methods that change which lines are resident.
_RESIDENCY_MUTATORS = frozenset({
    "insert", "invalidate", "invalidate_all", "fill",
})

#: Per-line / per-entry state fields the protocol owns.
_STATE_FIELDS = frozenset({
    "state", "dirty", "delayed", "value", "lw_id", "owner", "sharers",
    "mode",
})


def _cache_root(node: ast.expr) -> str:
    """The first ``l1s``/``l2s``/``directory`` attribute reached through
    ``node``'s receiver chain, else ``""``.  Bare names (a local
    ``line`` the engine handed out) never match."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _CACHE_ROOTS:
            return sub.attr
    return ""


class _CachePokeVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    def _flag(self, lineno: int, what: str) -> None:
        self.findings.append(Finding(
            self.ctx.relpath, lineno, "RL006",
            f"{what}; cache-line and directory state is mutated only "
            f"inside coherence/mem — schemes change residency through "
            f"CoherenceEngine services, so the directory, residency "
            f"and counters stay consistent"))

    def _check_target(self, target: ast.expr, verb: str) -> None:
        if (isinstance(target, ast.Attribute)
                and target.attr in _STATE_FIELDS):
            root = _cache_root(target.value)
            if root:
                self._flag(target.lineno,
                           f"{verb} to .{target.attr} of a line reached "
                           f"through .{root}")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, "augmented assignment")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _RESIDENCY_MUTATORS):
            root = _cache_root(func.value)
            if root:
                self._flag(node.lineno,
                           f"residency-mutating call .{func.attr}() on a "
                           f"cache reached through .{root}")
        self.generic_visit(node)


class CacheOwnershipRule(Rule):
    code = "RL006"
    name = "cache-ownership"
    description = ("no direct cache-line/directory mutation outside "
                   "coherence/mem — the engine is the only writer, so "
                   "directory, residency and counters stay consistent")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_packages("coherence", "mem"):
            return iter(())
        visitor = _CachePokeVisitor(ctx)
        visitor.visit(ctx.tree)
        return iter(visitor.findings)
