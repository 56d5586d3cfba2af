"""Scheme construction: a string-keyed, pluggable scheme registry.

The registry replaces the old hard-coded if-chain: every checkpointing
scheme — the built-ins behind the :class:`~repro.params.Scheme` enum and
any out-of-tree or experimental scheme — is a named entry mapping the
scheme's identity (``config.scheme.value``) to a builder callable.

Built-ins register themselves at import time by iterating the ``Scheme``
enum members.  Out-of-tree schemes plug in with::

    from repro.core import register_scheme

    tag = register_scheme("my_scheme", MySchemeClass, is_local=True)
    stats = execute_run(RunKey("ocean", 8, tag, 3.0, 1, 40))

``register_scheme`` returns a :class:`~repro.params.SchemeTag` carrying
the policy properties the simulator reads off ``config.scheme``; put the
tag in a ``MachineConfig``/``RunKey`` wherever an enum member would go.
CLI scheme tokens resolve through :func:`resolve_scheme`, so registered
names work in ``--schemes``/``campaign`` arguments too.

Note on process pools: the engine's workers import ``repro`` afresh, so
a scheme registered dynamically in the parent process is unknown to
them.  Register out-of-tree schemes at import time (e.g. from a module
both sides import) or run with ``jobs=1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

from repro.core.global_scheme import GlobalScheme
from repro.core.rebound_scheme import ReboundScheme
from repro.core.scheme_base import BaseScheme, NoCheckpointScheme
from repro.params import Scheme, SchemeTag

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

SchemeBuilder = Callable[["Machine"], BaseScheme]
SchemeLike = Union[Scheme, SchemeTag]

#: name -> builder callable (``Machine -> BaseScheme``).
_BUILDERS: dict[str, SchemeBuilder] = {}

#: name -> the Scheme enum member or SchemeTag carrying that name.
_TAGS: dict[str, SchemeLike] = {}


def register_scheme(name: str, builder: SchemeBuilder, *,
                    is_local: bool = False,
                    delayed_writebacks: bool = False,
                    barrier_optimization: bool = False,
                    replace: bool = False) -> SchemeTag:
    """Register an out-of-tree scheme under ``name``.

    Returns the :class:`SchemeTag` to use as ``MachineConfig.scheme`` /
    ``RunKey.scheme``.  Duplicate names are rejected unless
    ``replace=True`` (built-in enum names can never be replaced).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"scheme name must be a non-empty string, "
                         f"got {name!r}")
    if name in _BUILDERS and isinstance(_TAGS[name], Scheme):
        raise ValueError(
            f"scheme {name!r} is a built-in Scheme enum member and "
            f"cannot be replaced")
    if name in _BUILDERS and not replace:
        raise ValueError(
            f"scheme {name!r} is already registered; pass replace=True "
            f"to override it")
    tag = SchemeTag(name, is_local=is_local,
                    delayed_writebacks=delayed_writebacks,
                    barrier_optimization=barrier_optimization)
    _BUILDERS[name] = builder
    _TAGS[name] = tag
    return tag


def unregister_scheme(name: str) -> None:
    """Remove a previously registered out-of-tree scheme (test hygiene)."""
    if name not in _BUILDERS:
        raise KeyError(f"scheme {name!r} is not registered")
    if isinstance(_TAGS[name], Scheme):
        raise ValueError(f"cannot unregister built-in scheme {name!r}")
    del _BUILDERS[name]
    del _TAGS[name]


def registered_schemes() -> tuple[str, ...]:
    """Every registered scheme name, sorted (built-ins included)."""
    return tuple(sorted(_BUILDERS))


def resolve_scheme(token: str) -> SchemeLike:
    """The :class:`Scheme` member or :class:`SchemeTag` named ``token``
    (how CLI scheme arguments address the registry)."""
    try:
        return _TAGS[token]
    except KeyError:
        raise ValueError(
            f"unknown scheme {token!r}; known: "
            f"{sorted(_BUILDERS)}") from None


def fault_free_invariant_overrides(scheme: SchemeLike) -> frozenset:
    """Config fields ``scheme``'s fault-free execution provably never
    reads (``FAULT_FREE_INVARIANT_OVERRIDES`` declared on its builder
    class) — the engine widens replica batches across overrides of
    exactly these fields.  Unknown schemes and bare builder callables
    without the declaration answer the conservative empty set: never
    widening is always sound."""
    name = getattr(scheme, "value", scheme)
    builder = _BUILDERS.get(name)
    invariant = getattr(builder, "FAULT_FREE_INVARIANT_OVERRIDES",
                        frozenset())
    return invariant if isinstance(invariant, frozenset) else frozenset()


def scheme_builder(scheme: SchemeLike) -> SchemeBuilder:
    """The builder registered for ``scheme``."""
    name = getattr(scheme, "value", scheme)
    try:
        return _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; known: "
            f"{sorted(_BUILDERS)}") from None


def build_scheme(machine: "Machine") -> BaseScheme:
    """Instantiate the checkpointing scheme the config asks for."""
    return scheme_builder(machine.config.scheme)(machine)


#: Prefix families: schemes whose fault-free runs are the same machine
#: up to the first time scheme code runs.  Delayed writebacks only
#: change what a checkpoint does, and the NONE baseline only differs by
#: never taking one; the replica-batch planner runs one leader per
#: family (``ExperimentEngine._batch_key``).  Every other scheme is a
#: family of its own: the BarCK variants act at barriers, and a
#: registered scheme declares nothing.
_PREFIX_FAMILIES: dict[SchemeLike, SchemeLike] = {
    Scheme.NONE: Scheme.GLOBAL,
    Scheme.GLOBAL: Scheme.GLOBAL,
    Scheme.GLOBAL_DWB: Scheme.GLOBAL,
    Scheme.REBOUND_NODWB: Scheme.REBOUND_NODWB,
    Scheme.REBOUND: Scheme.REBOUND_NODWB,
}


def prefix_family(scheme: SchemeLike) -> SchemeLike:
    """The prefix family ``scheme`` belongs to (named by its base
    scheme; a scheme outside the table is its own family)."""
    return _PREFIX_FAMILIES.get(scheme, scheme)


def _register_builtin(member: Scheme, builder: SchemeBuilder) -> None:
    _BUILDERS[member.value] = builder
    _TAGS[member.value] = member


def _register_builtins() -> None:
    """The :class:`Scheme` enum members register the built-in classes
    (their policy properties pick the implementation)."""
    for member in Scheme:
        if member is Scheme.NONE:
            _register_builtin(member, NoCheckpointScheme)
        elif member.is_local:
            _register_builtin(member, ReboundScheme)
        else:
            _register_builtin(member, GlobalScheme)


_register_builtins()
