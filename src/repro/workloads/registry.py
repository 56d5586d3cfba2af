"""Workload lookup and registration: a string-keyed, pluggable registry.

This mirrors the scheme registry of :mod:`repro.core.factory`: every
workload — the 18 modeled applications of Figure 4.3(b) and any
out-of-tree or experimental generator — is a named entry mapping the
workload's identity (``RunKey.app``) to a builder callable.

Built-ins register themselves at import time from the profile table.
Out-of-tree generators plug in with::

    from repro.workloads import register_workload

    def build_mine(n_threads, config, intervals, seed):
        ...  # -> WorkloadSpec
    tag = register_workload("my_app", build_mine)
    stats = execute_run(RunKey(tag, 8, Scheme.REBOUND, 3.0, 1, 40))

``register_workload`` returns a picklable :class:`WorkloadTag`; put the
tag in a ``RunKey`` wherever a built-in app name would go.  CLI workload
tokens resolve through :func:`resolve_workload`, so registered names
work in ``--workloads``/``--apps`` arguments too.

A registration may carry a ``fingerprint`` — a version string that
changes whenever the generator's *code or data* would produce different
output for the same inputs.  Built-ins use the profile repr; it is what
makes the harness's content-addressed workload store
(:mod:`repro.harness.workload_store`) able to reuse a generator's
output across runs.  The store keys registered generators by the full
resolved ``MachineConfig`` (they receive the whole config, so any field
may shape their output; built-ins are keyed by
``checkpoint_interval`` alone and shared across every other axis).
Registrations without a fingerprint simply bypass the store (the
workload is rebuilt per run, exactly as before).

Note on process pools: the engine's workers import ``repro`` afresh, so
a workload registered dynamically in the parent process is unknown to
them.  Register out-of-tree workloads at import time (e.g. from a
module both sides import) or run with ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.params import MachineConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.profiles import ALL_APPS, AppProfile, get_profile
from repro.workloads.synthetic import build_workload

#: ``(n_threads, config, intervals, seed) -> WorkloadSpec``.
WorkloadBuilder = Callable[[int, MachineConfig, float, int], WorkloadSpec]


@dataclass(frozen=True)
class WorkloadTag:
    """Workload identity for out-of-tree generators.

    Built-in workloads are addressed by their plain profile name (a
    ``str``, which keeps every pre-registry ``RunKey`` cache identity
    byte-identical); registered generators get a ``WorkloadTag`` — a
    frozen, picklable value exposing ``value`` like
    :class:`repro.params.SchemeTag` does for schemes — usable as
    ``RunKey.app`` and in CLI ``--workloads`` arguments.
    """

    value: str


WorkloadLike = Union[str, WorkloadTag]

#: name -> builder callable.
_BUILDERS: dict[str, WorkloadBuilder] = {}

#: name -> the identity carrying that name (str for built-ins).
_TAGS: dict[str, WorkloadLike] = {}

#: name -> content fingerprint (None = workload store bypass).
_FINGERPRINTS: dict[str, Optional[str]] = {}


def workload_name(app: WorkloadLike) -> str:
    """The registry name behind a ``RunKey.app`` value (str or tag)."""
    return getattr(app, "value", app)


def register_workload(name: str, builder: WorkloadBuilder, *,
                      fingerprint: Optional[str] = None,
                      replace: bool = False) -> WorkloadTag:
    """Register an out-of-tree workload generator under ``name``.

    Returns the :class:`WorkloadTag` to use as ``RunKey.app``.
    Duplicate names are rejected unless ``replace=True`` (built-in
    profile names can never be replaced).  ``fingerprint`` opts the
    generator into the content-addressed workload store (see module
    docstring).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"workload name must be a non-empty string, "
                         f"got {name!r}")
    if fingerprint is not None and (not isinstance(fingerprint, str)
                                    or not fingerprint.strip()):
        # An empty fingerprint would be taken at face value by the
        # workload store and the result cache — a "signal" that never
        # changes, i.e. entries that are never invalidated.
        raise ValueError(f"workload {name!r}: fingerprint must be a "
                         f"non-empty string (or None to bypass the "
                         f"workload store), got {fingerprint!r}")
    if name in _BUILDERS and isinstance(_TAGS[name], str):
        raise ValueError(
            f"workload {name!r} is a built-in application profile and "
            f"cannot be replaced")
    if name in _BUILDERS and not replace:
        raise ValueError(
            f"workload {name!r} is already registered; pass replace=True "
            f"to override it")
    tag = WorkloadTag(name)
    _BUILDERS[name] = builder
    _TAGS[name] = tag
    _FINGERPRINTS[name] = fingerprint
    return tag


def unregister_workload(name: str) -> None:
    """Remove a previously registered out-of-tree workload (test
    hygiene)."""
    if name not in _BUILDERS:
        raise KeyError(f"workload {name!r} is not registered")
    if isinstance(_TAGS[name], str):
        raise ValueError(f"cannot unregister built-in workload {name!r}")
    del _BUILDERS[name]
    del _TAGS[name]
    del _FINGERPRINTS[name]


def registered_workloads() -> tuple[str, ...]:
    """Every registered workload name, sorted (built-ins included)."""
    return tuple(sorted(_BUILDERS))


def resolve_workload(token: str) -> WorkloadLike:
    """The identity named ``token`` — the built-in name itself, or the
    :class:`WorkloadTag` of a registered generator (how CLI
    ``--workloads`` arguments address the registry)."""
    try:
        return _TAGS[token]
    except KeyError:
        raise ValueError(
            f"unknown workload {token!r}; known: "
            f"{sorted(_BUILDERS)}") from None


def workload_fingerprint(app: WorkloadLike) -> Optional[str]:
    """Content fingerprint for the workload store (None = bypass)."""
    return _FINGERPRINTS.get(workload_name(app))


def is_builtin_workload(app: WorkloadLike) -> bool:
    """True for the profile-backed built-ins.

    The workload store keys built-ins by ``config.checkpoint_interval``
    alone (their builders provably consume nothing else from the
    config); registered generators receive the *full* config, so the
    store keys them by the whole resolved config instead — conservative
    sharing, never a wrong workload.
    """
    return isinstance(_TAGS.get(workload_name(app)), str)


def list_workloads() -> list[str]:
    """Names of all modeled applications plus registered extras."""
    extras = sorted(set(_BUILDERS) - set(ALL_APPS))
    return list(ALL_APPS) + extras


def get_workload(app: WorkloadLike, n_threads: int, config: MachineConfig,
                 intervals: float = 5.0, seed: int = 1) -> WorkloadSpec:
    """Build the named workload for ``n_threads`` threads.

    ``app`` is a built-in profile name or a :class:`WorkloadTag`;
    ``intervals`` sets the run length in checkpoint intervals and the
    footprints scale with ``config.checkpoint_interval``, so a scaled
    machine keeps the paper's per-interval ratios.
    """
    name = workload_name(app)
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: "
            f"{sorted(_BUILDERS)}") from None
    return builder(n_threads, config, intervals, seed)


def _builtin_builder(profile: AppProfile) -> WorkloadBuilder:
    def build(n_threads: int, config: MachineConfig, intervals: float,
              seed: int) -> WorkloadSpec:
        return build_workload(profile, n_threads,
                              config.checkpoint_interval,
                              intervals=intervals, seed=seed)
    return build


def _register_builtins() -> None:
    """The 18 application profiles register themselves; the profile repr
    is the content fingerprint (any profile change re-addresses the
    stored workload)."""
    for name in ALL_APPS:
        profile = get_profile(name)
        _BUILDERS[name] = _builtin_builder(profile)
        _TAGS[name] = name
        _FINGERPRINTS[name] = repr(profile)


_register_builtins()
