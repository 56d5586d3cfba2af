"""perfbench's tracer against the tree it instruments.

``perfbench/tracing.py`` names its targets by module path
(``SPAN_TARGETS``/``COUNTER_TARGETS``) and patches them at class level.
A rename or move under ``src/`` breaks a traced benchmark run without
failing any other test; this test installs the tracer, checks that
every target resolves, and checks that uninstalling puts back exactly
the attributes that were there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_uninstall_restores_it():
    tracing = _load_tracing()
    targets = []
    for table in (tracing.SPAN_TARGETS, tracing.COUNTER_TARGETS):
        for entries in table.values():
            for owner_path, attrs, *extra in entries:
                owner = tracing._resolve(owner_path)
                names = (tracing._public_methods(owner) if attrs is None
                         else list(attrs))
                names += extra[0] if extra else []
                for name in names:
                    assert name in vars(owner), f"{owner_path}.{name}"
                    targets.append((owner, name, vars(owner)[name]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(targets)
        for owner, name, original in targets:
            assert vars(owner)[name] is not original
    finally:
        tracer.uninstall()
    for owner, name, original in targets:
        assert vars(owner)[name] is original
