"""Static import graph over one package tree.

RL003 needs the transitive import closure of the cache entry points
(``execute_run``, ``run_replica_batch``) to compare against the code
fingerprint's file set.  This module builds that graph from the ASTs
alone — no imports are executed — resolving absolute
(``import repro.sim.machine``, ``from repro.workloads import x``) and
relative (``from .faults import FaultPlan``) edges to in-package
module files.  ``from pkg import name`` adds an edge to ``pkg`` *and*
to ``pkg/name`` when the latter is itself a module — the conservative
reading: either object may carry simulation-relevant code.

Imports of foreign packages (stdlib, third party) are ignored: the fingerprint
contract only covers the package's own sources (the interpreter version
baked into the fingerprint stands in for everything else).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.framework import ModuleContext, ProjectContext


@dataclass
class ImportGraph:
    """Module-name edges plus the unresolvable in-package imports."""

    #: module name -> set of in-package module names it imports.
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: (module name, lineno, missing target) for ``package.*`` imports
    #: that resolve to no file — a deleted or moved module.
    unresolved: list[tuple[str, int, str]] = field(default_factory=list)

    def reachable(self, roots: set[str]) -> set[str]:
        """Transitive closure of ``roots`` over the import edges."""
        seen = set()
        frontier = [name for name in roots if name in self.edges]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(self.edges.get(name, ()))
        return seen


def _package_parts(ctx: ModuleContext) -> list[str]:
    """The package the module lives in (its own name for packages)."""
    parts = ctx.module.split(".")
    if not ctx.relpath.endswith("__init__.py"):
        parts = parts[:-1]
    return parts


def _resolve_relative(ctx: ModuleContext, node: ast.ImportFrom,
                      ) -> Optional[str]:
    """The absolute module a relative ``from ... import`` addresses, or
    None when the dots climb out of the package."""
    base = _package_parts(ctx)
    if node.level > len(base):
        return None
    if node.level:
        base = base[:len(base) - (node.level - 1)]
    return ".".join(base + (node.module.split(".") if node.module else []))


def _module_edges(ctx: ModuleContext, package: str,
                  known: set[str]) -> Iterator[tuple[str, int, bool]]:
    """(target module name, lineno, resolved) for every in-package
    import of ``ctx``; submodule names of ``from mod import name`` are
    emitted only when they resolve (a plain attribute import is not an
    edge miss)."""
    prefix = package + "."
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == package or name.startswith(prefix):
                    yield name, node.lineno, name in known
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                target = _resolve_relative(ctx, node)
            else:
                target = node.module
            if target is None or not (target == package
                                      or target.startswith(prefix)):
                continue
            yield target, node.lineno, target in known
            for alias in node.names:
                sub = f"{target}.{alias.name}"
                if sub in known:
                    yield sub, node.lineno, True


def build_import_graph(project: ProjectContext) -> ImportGraph:
    """The in-package import graph of every parsed module."""
    package = project.project.package
    known = {ctx.module for ctx in project.modules}
    graph = ImportGraph()
    for ctx in project.modules:
        edges = graph.edges.setdefault(ctx.module, set())
        # A package's modules implicitly depend on their ancestors'
        # __init__ bodies (importing repro.sim.machine executes
        # repro/__init__.py and repro/sim/__init__.py first).
        parts = ctx.module.split(".")
        for depth in range(1, len(parts)):
            ancestor = ".".join(parts[:depth])
            if ancestor in known:
                edges.add(ancestor)
        for target, lineno, resolved in _module_edges(ctx, package, known):
            if resolved:
                edges.add(target)
            else:
                graph.unresolved.append((ctx.module, lineno, target))
    return graph


def defining_modules(project: ProjectContext,
                     function_names: tuple[str, ...],
                     ) -> dict[str, Optional[str]]:
    """function name -> module that defines it at top level (None when
    no module does)."""
    table: dict[str, Optional[str]] = {name: None
                                       for name in function_names}
    for ctx in project.modules:
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in table and table[node.name] is None:
                table[node.name] = ctx.module
    return table
