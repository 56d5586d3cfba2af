"""The benchmark's workloads: what each one plans, runs, renders and checks.

Every workload is one real reproduction a user waits for, run through the
same public entry points the CLI uses (``ExperimentEngine``, ``Runner``,
the figure drivers and ``CampaignService``):

* ``campaign_dense``  -- the default ``fig6_9`` campaign (MTTF = 1 interval).
* ``campaign_sparse`` -- a 16-core, 16-seed campaign at MTTF = 8 intervals,
  served through the campaign service and then replayed after a restart.
* ``overhead_64``     -- ``fig6_3`` at 64 cores on water_sp and ocean,
  error-free.

The benchmark's ``--seed`` becomes the workload-generator seed
(:func:`input_seed`; seed 0 is the CLI default, ``Runner.seed`` = 1).  The
campaigns keep the CLI's default fault plans (base seed 100), so every
seed runs the same fault process -- the same density, the same detection
times, the same replica divergence -- over a different synthetic instance
of the apps.

This module imports :mod:`repro`; the caller puts ``src`` on the path.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from repro.harness import experiments
from repro.harness.engine import ExperimentEngine, RunKey
from repro.harness.runner import Runner
from repro.harness.service import CampaignService
from repro.params import Scheme
from repro.sim import SimStats

#: Engine workers of every measured run: one driver plus two pool workers.
JOBS = 2
SCALE = 40
INTERVALS = 3.0
#: ``python -m repro.harness campaign --seed`` default.
DEFAULT_FAULT_SEED = 100
#: ``Runner.seed`` default (the workload-generator seed).
DEFAULT_WORKLOAD_SEED = 1


def input_seed(seed: int) -> int:
    """The workload-generator seed of benchmark seed ``seed``."""
    return DEFAULT_WORKLOAD_SEED + seed


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    text: str                       # the rendered figure table
    keys: list                      # unique RunKeys, plan order
    stats: list                     # their SimStats, same order
    planned: int = 0                # keys planned, duplicates included
    dispatch_s: float = 0.0         # wall of the executing call
    problems: list = dataclasses.field(default_factory=list)
    extras: dict = dataclasses.field(default_factory=dict)


def _runner(engine: ExperimentEngine, workload_seed: int) -> Runner:
    return Runner(scale=SCALE, intervals=INTERVALS, seed=workload_seed,
                  engine=engine)


def _outcome(engine: ExperimentEngine, keys: list, text: str,
             dispatch_s: float, problems=(), **extras) -> Outcome:
    unique = list(dict.fromkeys(keys))
    return Outcome(text=text, keys=unique,
                   stats=[engine.memo[key] for key in unique],
                   planned=len(keys), dispatch_s=dispatch_s,
                   problems=list(problems), extras=extras)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    """A ``fig6_9`` campaign plan (apps x sizes x variants x seeds)."""

    sizes: tuple[int, ...]
    variants: tuple
    n_seeds: int
    mttf: float
    apps: tuple[str, ...] = tuple(experiments.CAMPAIGN_APPS)

    def keys(self, engine: ExperimentEngine, seed: int) -> list[RunKey]:
        return experiments.plan_fig6_9(
            _runner(engine, seed), list(self.apps), self.sizes,
            self.variants, self.n_seeds, DEFAULT_FAULT_SEED, self.mttf)

    def render(self, engine: ExperimentEngine, seed: int) -> str:
        return experiments.fig6_9_campaign(
            _runner(engine, seed), apps=list(self.apps), sizes=self.sizes,
            variants=self.variants, n_seeds=self.n_seeds,
            base_seed=DEFAULT_FAULT_SEED, mttf_intervals=self.mttf).render()


DENSE = Campaign(sizes=(8, 16), variants=experiments.CAMPAIGN_VARIANTS,
                 n_seeds=3, mttf=1.0)
SPARSE = Campaign(sizes=(16,), variants=experiments.CAMPAIGN_VARIANTS[:2],
                  n_seeds=16, mttf=8.0)


def _execute_dense(engine, seed: int, work: Path, serve: bool) -> Outcome:
    keys = DENSE.keys(engine, seed)
    start = time.perf_counter()
    engine.prefetch(keys)
    dispatch = time.perf_counter() - start
    return _outcome(engine, keys, DENSE.render(engine, seed), dispatch)


def _execute_sparse(engine, seed: int, work: Path, serve: bool) -> Outcome:
    """Submit, drain, then restart: a fresh engine and service on the same
    spool must replay every landed run and recompute none."""
    keys = SPARSE.keys(engine, seed)
    if not serve:       # warm replay: the figure straight from the cache
        start = time.perf_counter()
        engine.prefetch(keys)
        return _outcome(engine, keys, SPARSE.render(engine, seed),
                        time.perf_counter() - start)
    spool = work / "spool"
    service = CampaignService(spool_dir=spool, engine=engine)
    start = time.perf_counter()
    job = service.submit(keys, label="perfbench")
    service.serve(drain=True)
    dispatch = time.perf_counter() - start
    status = service.status(job) or {}
    submitted = status.get("submitted_at", 0.0)
    with service.journal_path.open(encoding="utf-8") as fh:
        landings = [1000.0 * (record["t"] - submitted)
                    for record in map(json.loads, fh)
                    if record["job"] == job]

    start = time.perf_counter()
    restarted = make_engine(engine.jobs, engine.cache_dir)
    service = CampaignService(spool_dir=spool, engine=restarted)
    replayed = service.replay()
    report = restarted.run_stream(keys)
    service.close()
    replay_s = time.perf_counter() - start
    text = SPARSE.render(restarted, seed)
    unique = len(set(keys))
    problems = []
    if status.get("state") != "done" or status.get("failed", 0):
        problems.append(f"service job ended {status.get('state')!r} with "
                        f"{status.get('failed', 0)} failure(s)")
    if replayed != unique or report.computed or report.failures:
        problems.append(f"restart replayed {replayed} of {unique} runs, "
                        f"recomputed {report.computed}, failed "
                        f"{len(report.failures)}")
    return _outcome(restarted, keys, text, dispatch, problems,
                    landing_p50_ms=median(landings) if landings else 0.0,
                    replay_s=replay_s, restart_recomputed=report.computed)


# ---------------------------------------------------------------------------
# the 64-core error-free figure
# ---------------------------------------------------------------------------

OVERHEAD_APPS = ["water_sp", "ocean"]
OVERHEAD_CORES = 64


def _overhead_keys(engine: ExperimentEngine, seed: int) -> list:
    return experiments.plan_fig6_3(_runner(engine, seed), OVERHEAD_APPS,
                                   OVERHEAD_CORES)


def _execute_overhead(engine, seed: int, work: Path,
                      serve: bool) -> Outcome:
    runner = _runner(engine, seed)
    keys = _overhead_keys(engine, seed)
    start = time.perf_counter()
    engine.prefetch(keys)
    dispatch = time.perf_counter() - start
    text = experiments.fig6_3_overhead(runner, apps=OVERHEAD_APPS,
                                       n_cores=OVERHEAD_CORES).render()
    pct = {scheme.value: 100.0 * sum(
        runner.overhead(app, OVERHEAD_CORES, scheme)
        for app in OVERHEAD_APPS) / len(OVERHEAD_APPS)
        for scheme in (Scheme.GLOBAL, Scheme.REBOUND)}
    return _outcome(engine, keys, text, dispatch,
                    global_overhead_pct=pct["global"],
                    rebound_overhead_pct=pct["rebound"])


@dataclass(frozen=True)
class Workload:
    plan: Callable            # (engine, input seed) -> RunKeys
    execute: Callable         # (engine, input seed, work, serve) -> Outcome


WORKLOADS = {
    "campaign_dense": Workload(DENSE.keys, _execute_dense),
    "campaign_sparse": Workload(SPARSE.keys, _execute_sparse),
    "overhead_64": Workload(_overhead_keys, _execute_overhead),
}


def make_engine(jobs: int, cache_dir: Path) -> ExperimentEngine:
    return ExperimentEngine(jobs=jobs, cache_dir=cache_dir,
                            use_disk_cache=True, vector=True)


def plan(name: str, engine: ExperimentEngine, seed: int) -> list:
    return WORKLOADS[name].plan(engine, seed)


def execute(name: str, engine: ExperimentEngine, seed: int, work: Path,
            serve: bool = True) -> Outcome:
    return WORKLOADS[name].execute(engine, seed, work, serve)


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------

def check_run(stats: SimStats) -> Optional[str]:
    """Why ``stats`` is not a correct run, or None.

    The cycle buckets must partition the run exactly, and every injected
    fault is either delivered (one rollback each) or undelivered.
    """
    try:
        stats.verify_cycle_accounting()
    except AssertionError as exc:
        return str(exc)
    delivered = len(stats.rollbacks)
    if delivered + stats.undelivered_faults != stats.injected_faults:
        return (f"{stats.workload}/{stats.scheme.value}: {delivered} "
                f"delivered + {stats.undelivered_faults} undelivered != "
                f"{stats.injected_faults} injected faults")
    return None


def _canon(value):
    """A representation of ``value`` that is equal exactly when the
    values are, independent of dict insertion order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, _canon(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def digest(outcome: Outcome) -> str:
    """SHA-256 over the rendered table and every run's key and stats."""
    hasher = hashlib.sha256(outcome.text.encode())
    for key, stats in zip(outcome.keys, outcome.stats):
        hasher.update(repr(key).encode())
        hasher.update(repr(_canon(stats)).encode())
    return hasher.hexdigest()


def model_counts(stats_list: list) -> dict:
    """Simulated counts over a workload's runs (exactly repeatable)."""
    def total(name):
        return sum(getattr(stats, name) for stats in stats_list)
    accesses = total("mem_accesses")
    l1 = total("l1_hits") + total("l1_misses")
    l2 = total("l2_hits") + total("l2_misses")
    irecs = [r.size for stats in stats_list for r in stats.rollbacks]
    return {
        "sim_instructions": total("total_instructions"),
        "sim_cycles": total("runtime"),
        "mem_accesses": accesses,
        "fastpath_hit_rate": ((total("fastpath_loads")
                               + total("fastpath_stores")) / accesses
                              if accesses else 0.0),
        "l1_hit_rate": total("l1_hits") / l1 if l1 else 0.0,
        "l2_hit_rate": total("l2_hits") / l2 if l2 else 0.0,
        "invalidations": total("invalidations"),
        "checkpoints": sum(len(stats.checkpoints) for stats in stats_list),
        "rollbacks": len(irecs),
        "mean_irec": sum(irecs) / len(irecs) if irecs else 0.0,
        "faults_delivered": (total("injected_faults")
                             - total("undelivered_faults")),
    }


def summary(outcome: Outcome) -> dict:
    """The JSON-able result of one execution, checks included."""
    failures = [problem for problem in map(check_run, outcome.stats)
                if problem is not None]
    return {"digest": digest(outcome), "runs": len(outcome.keys),
            "planned": outcome.planned,
            "failures": failures + outcome.problems, "text": outcome.text,
            "dispatch_s": outcome.dispatch_s, "extras": outcome.extras,
            "model": model_counts(outcome.stats)}
