"""Cached simulation runner for the experiment harness.

Most figures share runs (e.g. the no-checkpointing baseline of an app at
64 cores), so every run is memoized by its full parameter key.  Since
the parallel-engine PR the runner is a thin facade over
:class:`~repro.harness.engine.ExperimentEngine`, which adds cross-figure
deduplication, a process pool and a persistent on-disk result cache;
``Runner.run`` keeps its original signature so the experiment drivers
work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.harness.engine import ExperimentEngine, RunKey
from repro.harness.scenario import EMPTY_OVERRIDES
from repro.params import Scheme
from repro.sim import SimStats
from repro.sim.faults import FaultPlan


@dataclass
class Runner:
    """Runs and caches simulations for the experiment drivers."""

    scale: int = 40
    intervals: float = 3.0
    seed: int = 1
    verbose: bool = False
    engine: Optional[ExperimentEngine] = None

    def __post_init__(self):
        if self.engine is None:
            # A bare Runner() behaves exactly like the seed's runner:
            # in-process memoization only, no worker pool, no disk I/O.
            # Parallelism and the persistent cache are opted into by
            # passing an engine (as the CLI and benchmarks/conftest do).
            self.engine = ExperimentEngine(jobs=1, use_disk_cache=False,
                                           verbose=self.verbose)
        elif self.verbose:
            self.engine.verbose = True

    def key(self, app: str, n_cores: int, scheme: Scheme,
            io_every: Optional[int] = None,
            fault_at: Optional[float] = None,
            intervals: Optional[float] = None,
            fault_plan: Optional[FaultPlan] = None,
            cluster: int = 1,
            seed: Optional[int] = None,
            overrides: Optional[Mapping[str, Any]] = None) -> RunKey:
        """The :class:`RunKey` a ``run()`` with these arguments uses."""
        return RunKey(app, n_cores, scheme,
                      intervals if intervals is not None else self.intervals,
                      seed if seed is not None else self.seed,
                      self.scale, io_every, fault_at,
                      fault_plan, cluster,
                      overrides if overrides is not None
                      else EMPTY_OVERRIDES)

    def prefetch(self, keys: Iterable[RunKey]) -> None:
        """Plan ahead: execute ``keys`` (deduplicated, possibly in
        parallel) so subsequent ``run()`` calls are cache hits."""
        self.engine.prefetch(keys)

    def run(self, app: str, n_cores: int, scheme: Scheme,
            io_every: Optional[int] = None,
            fault_at: Optional[float] = None,
            intervals: Optional[float] = None,
            fault_plan: Optional[FaultPlan] = None,
            cluster: int = 1,
            seed: Optional[int] = None,
            overrides: Optional[Mapping[str, Any]] = None) -> SimStats:
        return self.engine.run(self.key(app, n_cores, scheme,
                                        io_every, fault_at, intervals,
                                        fault_plan, cluster, seed,
                                        overrides))

    def baseline(self, app: str, n_cores: int, **kw) -> SimStats:
        return self.run(app, n_cores, Scheme.NONE, **kw)

    def overhead(self, app: str, n_cores: int, scheme: Scheme,
                 **kw) -> float:
        """Checkpointing overhead fraction vs. the NONE baseline."""
        stats = self.run(app, n_cores, scheme, **kw)
        base = self.baseline(app, n_cores, **kw)
        return stats.overhead_vs(base)
