"""One fresh-interpreter execution of a benchmark workload.

    PYTHONPATH=src python3 perfbench/child.py --workload NAME --inputs N \\
        --mode MODE --work DIR

``--inputs`` is the workload-generator seed (``workloads.input_seed``).

Modes:

``setup``  imports, engine construction and planning; no simulation.
``cold``   the whole workload against the empty cache and workload store
           under ``DIR``, ending with the rendered figure and the checks.
``warm``   in this fresh process, first times a real ``WorkloadStore.load``
           of every workload the plan uses (no LRU entry exists yet), then
           replays the plan from the cache a ``cold`` run left in ``DIR``.
``reference``
           serially (``-j 1``) and untraced, computes the runs of the
           plan's first scheme against an empty cache (every app and
           size, whole replica groups): the task seconds the traced run's
           are compared with.

Every mode but ``reference`` runs the engine at ``workloads.JOBS``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from statistics import median

import workloads
from repro.harness.engine import resolve_config
from repro.harness.workload_store import WorkloadStore


def dispatch_metrics(engine, dispatch_s: float) -> dict:
    """How the engine shaped and spread the computed runs.

    ``engine.batch_width`` only holds replica-batch members, so every other
    computed run (``engine.profile``) is a task of width 1.
    """
    widths = {key: engine.batch_width.get(key, 1) for key in engine.profile}
    batched = [width for width in widths.values() if width > 1]
    batches = round(sum(1.0 / width for width in batched))
    tasks = (len(widths) - len(batched)) + batches
    busy = sum(engine.profile.values())
    return {
        "task_s": busy,
        "tasks": tasks,
        "batches": batches,
        "mean_batch_width": len(widths) / tasks if tasks else 0.0,
        "longest_task_s": max(
            (seconds * widths.get(key, 1)
             for key, seconds in engine.profile.items()), default=0.0),
        "worker_busy_frac": (busy / (engine.jobs * dispatch_s)
                             if dispatch_s > 0 else 0.0),
        "store": engine.store_counters(),
    }


def store_load_ms(engine, keys) -> list[float]:
    """Milliseconds per first load of each distinct stored workload."""
    store = WorkloadStore(engine.workload_store.root, lru_capacity=0)
    digests = dict.fromkeys(
        store.digest_for(key.app, key.n_cores, resolve_config(key),
                         key.intervals, key.seed) for key in keys)
    times = []
    for digest in digests:
        start = time.perf_counter()
        spec = store.load(digest)
        elapsed = time.perf_counter() - start
        if spec is None:
            raise RuntimeError(f"workload {digest} missing from the store")
        times.append(1000.0 * elapsed)
    return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "cold", "warm", "reference"))
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    jobs = 1 if args.mode == "reference" else workloads.JOBS
    engine = workloads.make_engine(jobs, args.work / "cache")
    if args.mode == "reference":
        keys = list(dict.fromkeys(
            workloads.plan(args.workload, engine, args.inputs)))
        keys = [key for key in keys if key.scheme == keys[0].scheme]
        engine.prefetch(keys)
        failures = [problem for problem in (
            workloads.check_run(engine.memo[key]) for key in keys)
            if problem is not None]
        print(json.dumps({"runs": len(keys), "failures": failures,
                          "profile": {repr(key): seconds for key, seconds
                                      in engine.profile.items()}}))
        return 0
    if args.mode == "setup":
        keys = workloads.plan(args.workload, engine, args.inputs)
        print(json.dumps({"keys": len(keys), "unique": len(set(keys))}))
        return 0
    if args.mode == "cold":
        outcome = workloads.execute(args.workload, engine, args.inputs,
                                    args.work)
        result = workloads.summary(outcome)
        result["engine"] = dispatch_metrics(engine, outcome.dispatch_s)
        print(json.dumps(result))
        return 0
    keys = workloads.plan(args.workload, engine, args.inputs)
    loads = store_load_ms(engine, keys)
    start = time.perf_counter()
    outcome = workloads.execute(args.workload, engine, args.inputs,
                                args.work, serve=False)
    result = workloads.summary(outcome)
    result.update(replay_s=time.perf_counter() - start,
                  store_load_ms=median(loads))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
