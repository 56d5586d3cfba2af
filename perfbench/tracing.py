"""Span recorder and class-level layer instrumentation for the traced run.

:meth:`Tracer.install` wraps each layer's public entry points -- methods on
their classes, functions in the modules that call them -- before any
``Machine`` is built.  ``Machine._advance_main`` binds ``engine.load`` and
``engine.store`` at loop entry, so class-level wrappers see every call the
simulator makes and nothing under ``src/`` changes.

Two kinds of wrapper share one frame stack:

* a *span* (harness boundaries: plan, build, dispatch, task, batch, run,
  fork, service, summarize) is kept in memory as ``[name, start, end,
  parent, run]`` and written once, by :meth:`Tracer.write`;
* a *counter* (the hot kernel layers: coherence, mem, core, sync) only
  adds to its layer's call count and self time, since a span per cache
  lookup would not fit in memory.

A layer's self time is a frame's duration minus the time its child frames
cover, so self times never sum to more than the traced wall.  Each layer
also keeps its *inclusive* time over outermost frames (``kernel.s`` is the
time spent inside ``Machine``), and a few named probes do the same for
single entry points (checkpoint, rollback, fork).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

#: Layer -> owners (class or module path) and the attributes wrapped.
#: ``None`` as the attribute list means every public method the class
#: itself defines.  Span layers record spans; the rest only count.
SPAN_TARGETS = {
    "plan": [("repro.harness.experiments", ["plan_fig6_9", "plan_fig6_3"])],
    "workloads": [("repro.harness.engine", ["get_workload"]),
                  ("repro.harness.workload_store", ["get_workload"])],
    "store": [("repro.harness.workload_store:WorkloadStore",
               ["get_or_build", "ensure", "load", "save"])],
    "engine": [("repro.harness.engine:ExperimentEngine",
                ["run_many", "run_stream", "_prepare_workloads",
                 "_load_cached", "_store_cached"]),
               ("repro.harness.engine", ["execute_run", "execute_batch"])],
    "service": [("repro.harness.service:CampaignService",
                 ["submit", "serve", "run_job", "replay"])],
    "vector": [("repro.sim.vector", ["run_replica_batch"])],
    "kernel": [("repro.sim.machine:Machine",
                ["__init__", "run", "start", "advance", "finalize",
                 "fork"])],
    "stats": [("repro.harness.experiments", ["summarize_campaign"]),
              ("repro.harness.experiments:ExperimentResult", ["render"])],
}
COUNTER_TARGETS = {
    "coherence": [("repro.coherence.protocol:CoherenceEngine", None),
                  ("repro.coherence.directory:Directory", None)],
    "mem": [("repro.mem.cache:Cache", None),
            ("repro.mem.cache:L1Cache", None),
            ("repro.mem.channels:MemoryChannels", None),
            ("repro.mem.log:ReviveLog", None),
            ("repro.mem.memory:MainMemory", None)],
    "core": [("repro.core.scheme_base:BaseScheme",
              None, ["_execute_checkpoint", "_execute_rollback"]),
             ("repro.core.scheme_base:NoCheckpointScheme", None),
             ("repro.core.global_scheme:GlobalScheme", None),
             ("repro.core.rebound_scheme:ReboundScheme", None),
             ("repro.core.dep_registers:DepRegisterFile", None),
             ("repro.core.signature:WriteSignature", None),
             ("repro.core.barrier_opt:BarrierCheckpointCoordinator", None)],
    "sync": [("repro.sim.sync:SyncManager",
              ["lock_acquire", "lock_release", "barrier_arrive",
               "rollback_cleanup"])],
}
#: Named probes: (layer, attribute) -> probe name (inclusive time).
PROBES = {
    ("kernel", "fork"): "kernel.fork",
    ("kernel", "finalize"): "kernel.finalize",
    ("core", "_execute_checkpoint"): "core.checkpoint",
    ("core", "handle_fault"): "core.rollback",
    ("vector", "run_replica_batch"): "vector.batch",
    ("workloads", "get_workload"): "workloads.build",
    ("plan", "plan_fig6_9"): "plan",
    ("plan", "plan_fig6_3"): "plan",
}
#: Entry points that start a new harness task (spans below share its id).
NEW_RUN = {"execute_run", "execute_batch"}


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


def _public_methods(owner) -> list[str]:
    return [name for name, value in vars(owner).items()
            if not name.startswith("_") and inspect.isfunction(value)]


class Tracer:
    """Frames, spans and per-layer accumulators of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        #: layer -> [calls, self seconds, depth, inclusive seconds]
        self.layers: dict[str, list] = {}
        #: probe -> [calls, inclusive seconds, depth]
        self.probes: dict[str, list] = {}
        #: ``(BatchReport, replicas' simulated cycles)`` per vector batch.
        self.batches: list = []
        self.run = 0
        self._runs = 0
        self._stack: list[list] = []      # frames: [start, child seconds]
        self._open: list[int] = []        # indices of open spans
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str, span: bool,
              probe: str | None):
        acc = self.layers.setdefault(layer, [0, 0.0, 0, 0.0])
        probe_acc = (self.probes.setdefault(probe, [0, 0.0, 0])
                     if probe else None)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if not span and probe_acc is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                acc[2] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    acc[0] += 1
                    acc[1] += duration - frame[1]
                    acc[2] -= 1
                    if not acc[2]:
                        acc[3] += duration
                    if stack:
                        stack[-1][1] += duration
            return counted

        spans = self.spans
        opened = self._open
        new_run = name in NEW_RUN
        label = f"{layer}.{name.strip('_')}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved_run = tracer.run
            if new_run:
                tracer._runs += 1
                tracer.run = tracer._runs
            frame = [clock(), 0.0]
            index = -1
            if span:
                index = len(spans)
                spans.append([label, frame[0], None,
                              opened[-1] if opened else -1, tracer.run])
                opened.append(index)
            stack.append(frame)
            acc[2] += 1
            if probe_acc is not None:
                probe_acc[2] += 1
            try:
                result = fn(*args, **kwargs)
                if layer == "vector":
                    tracer.batches.append(
                        (result.report,
                         sum(stats.runtime for stats in result.stats)))
                return result
            finally:
                end = clock()
                duration = end - frame[0]
                stack.pop()
                acc[0] += 1
                acc[1] += duration - frame[1]
                acc[2] -= 1
                if not acc[2]:
                    acc[3] += duration
                if probe_acc is not None:
                    probe_acc[0] += 1
                    probe_acc[2] -= 1
                    if not probe_acc[2]:
                        probe_acc[1] += duration
                if stack:
                    stack[-1][1] += duration
                if span:
                    spans[index][2] = end
                    opened.pop()
                tracer.run = saved_run
        return traced

    def _patch(self, owner, attr: str, layer: str, span: bool) -> None:
        original = vars(owner)[attr]
        probe = PROBES.get((layer, attr))
        setattr(owner, attr, self._wrap(original, layer, attr, span, probe))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target; call before any ``Machine`` is built."""
        for targets, span in ((SPAN_TARGETS, True),
                              (COUNTER_TARGETS, False)):
            for layer, entries in targets.items():
                for owner_path, attrs, *extra in entries:
                    owner = _resolve(owner_path)
                    names = (_public_methods(owner) if attrs is None
                             else list(attrs))
                    for attr in names + (extra[0] if extra else []):
                        self._patch(owner, attr, layer, span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of a layer."""
        calls, self_s, _depth, inclusive = self.layers.get(
            name, [0, 0.0, 0, 0.0])
        return calls, self_s, inclusive

    def probe(self, name: str) -> tuple[int, float]:
        calls, inclusive, _depth = self.probes.get(name, [0, 0.0, 0])
        return calls, inclusive

    def self_total(self) -> float:
        return sum(acc[1] for acc in self.layers.values())

    def write(self, path: Path) -> None:
        """Write the spans (and layer totals) once, as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "layers": {name: {"calls": acc[0], "self_s": acc[1],
                              "inclusive_s": acc[3]}
                       for name, acc in sorted(self.layers.items())},
        }
        path.write_text(json.dumps(payload))
