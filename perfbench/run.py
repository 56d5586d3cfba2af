"""End-to-end reproduction benchmark for the Rebound simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures what a user waits for.  Every iteration is *cold*:
a fresh interpreter (``child.py``) with an empty result cache and workload
store under ``.perfbench_work/`` runs the workload at ``-j 2`` through to
the rendered figure.  Iterations repeat while the next one is projected to
end within ``--seconds`` (at least one); ``wall_s`` and ``cpu_s`` are the
medians of their host seconds.  ``setup_s`` is the median of several fresh
interpreters that import, build the engine and plan, and simulate nothing.

Every end-to-end time is rescaled to a nominal host speed (per-layer times
are not): while each child runs, a
:class:`SpeedProbe` thread times a fixed pure-Python loop, and the child's
seconds are multiplied by ``NOMINAL_PROBE_S`` over the mean sample
(``setup_s``: its median over the mean sample of all the set-up spawns).
The unscaled medians are printed on a ``raw {...}`` line before the
result, and the traced run reports them as ``host.*``.

``--trace 1`` reports the per-layer split.  It runs one untraced cold
iteration at ``-j 2`` (the engine's dispatch shape, the store counters and
the service timings come from it), an untraced serial reference run of the
plan's first scheme (``child.py --mode reference``), then the same workload
serially in this process with class-level wrappers installed
(``tracing.py``), then a warm replay in a fresh interpreter (the store load
and replay timings).  ``trace.overhead`` is the traced over the untraced
serial task seconds of the reference's runs.  Spans are written to
``.perfbench_spans/``.

Every run must pass the cycle-accounting and fault-accounting checks, and
each workload's digest over its table and run stats must agree across
cold, warm and traced executions -- and, for seed 0, with
``golden.json``.  Without ``src/repro`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"
GOLDEN = HERE / "golden.json"

SETUP_REPEATS = 15
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Speed probe: iterations of one sample, the sampling period, and the
#: sample's CPU seconds on the nominal host that reported seconds refer to.
#: Changing any of these changes every reported time.
PROBE_ITERATIONS = 6000
PROBE_PERIOD_S = 0.05
NOMINAL_PROBE_S = 2.0e-3
#: The paper's Fig 6.3 averages (SPLASH-2 at 64 processors).
PAPER_OVERHEAD_PCT = {"global": 15.0, "rebound": 2.0}


class ChildFailed(RuntimeError):
    pass


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def step(self, x: int) -> int:
        self.value += x & 3
        return self.value


def probe_sample() -> float:
    """CPU seconds of this thread for one fixed pure-Python loop of the
    kinds of work an interpreter-bound simulator does: integer arithmetic,
    attribute access, method calls, dict updates and small allocations."""
    start = time.thread_time()
    cells = [_Cell(i) for i in range(64)]
    table: dict[int, int] = {}
    kept = []
    for i in range(PROBE_ITERATIONS):
        cell = cells[i & 63]
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + cell.step(i)
        if i & 7 == 0:
            kept.append((key, cell.value))
    return time.thread_time() - start


class SpeedProbe:
    """Samples the host's CPU speed while a measured child runs.

    The host's speed moves by tens of percent within seconds (other tenants
    share its cores), in CPU time as much as in wall time.  A thread of this
    process times :func:`probe_sample` every ``PROBE_PERIOD_S`` (about 4% of
    one CPU) in its own CPU time, so waiting for a CPU does not count, only
    how fast the CPU runs once it has one.  :meth:`factor` rescales a time
    measured under the probe to a host whose sample takes
    ``NOMINAL_PROBE_S``.  The probe runs no code of the program, so a
    change to the program cannot speed it up or slow it down except
    through the host.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        self.samples.append(probe_sample())
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe_sample())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def factor(self) -> float:
        return NOMINAL_PROBE_S / self.mean_s()


def spawn(workload: str, inputs: int, mode: str, work: Path) -> dict:
    """Run ``child.py`` in a fresh interpreter under a :class:`SpeedProbe`
    and measure it.

    Returns the child's JSON plus ``raw_wall_s`` (spawn to exit),
    ``raw_cpu_s`` (the child and every worker it waited for, from
    ``wait4``), ``wall_s`` and ``cpu_s`` (the same rescaled to the nominal
    host), ``probe_ms`` (mean probe sample) and ``peak_rss_mb``.
    """
    work.mkdir(parents=True, exist_ok=True)
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    command = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--inputs", str(inputs), "--mode", mode, "--work",
               str(work)]
    out_path = work / f"{mode}.out"
    with out_path.open("w") as out, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, cwd=ROOT, env=env,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run of {workload} exited with "
                          f"{proc.returncode}")
    result = json.loads(lines[-1])
    cpu = usage.ru_utime + usage.ru_stime
    result.update(raw_wall_s=wall, raw_cpu_s=cpu,
                  wall_s=wall * probe.factor(), cpu_s=cpu * probe.factor(),
                  probe_ms=1000.0 * probe.mean_s(),
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return result


def golden_digest(workload: str, seed: int):
    """The recorded digest for this run, or None for non-default seeds."""
    if seed != 0:
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def check_digests(workload: str, seed: int, digests: dict) -> list[str]:
    """Problems with the digests of one run's executions, if any."""
    problems = []
    if len(set(digests.values())) != 1:
        problems.append("digests disagree: " + ", ".join(
            f"{name}={value[:12]}" for name, value in digests.items()))
    golden = golden_digest(workload, seed)
    if golden is not None and golden not in digests.values():
        problems.append(f"digest differs from the golden {golden[:12]}")
    return problems


def tally(executions: list[dict], problems: list[str]):
    """Runs attempted and failed over one benchmark run's executions, and
    every problem found; a digest ``problems`` entry fails every run."""
    attempted = sum(e["runs"] for e in executions)
    failed = attempted if problems else sum(
        min(e["runs"], len(e["failures"])) for e in executions)
    return attempted, failed, problems + [
        problem for e in executions for problem in e["failures"]]


def print_fidelity(extras: dict) -> None:
    if "global_overhead_pct" not in extras:
        return
    print("fidelity: 64-core error-free overhead, water_sp+ocean: "
          f"Global {extras['global_overhead_pct']:.2f}% (paper ~"
          f"{PAPER_OVERHEAD_PCT['global']:g}% over SPLASH-2), Rebound "
          f"{extras['rebound_overhead_pct']:.2f}% (paper ~"
          f"{PAPER_OVERHEAD_PCT['rebound']:g}%).  The model is otherwise "
          "checked only by orderings; no accuracy figure is claimed.")


# ---------------------------------------------------------------------------
# --trace 0: end to end
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, inputs: int, seconds: float,
               work: Path):
    setups = [spawn(workload, inputs, "setup", work / f"setup-{i}")
              for i in range(SETUP_REPEATS)]
    # A set-up spawn lasts about 0.3 s, a handful of probe samples, so the
    # median is rescaled by the probe's mean over all the set-up spawns.
    setup_s = (median(s["raw_wall_s"] for s in setups) * NOMINAL_PROBE_S
               * 1000.0 / fmean(s["probe_ms"] for s in setups))
    cold = []
    start = time.perf_counter()
    while not cold or (time.perf_counter() - start
                       + median(c["raw_wall_s"] for c in cold) <= seconds):
        cold.append(spawn(workload, inputs, "cold",
                          work / f"cold-{len(cold)}"))
    warm = spawn(workload, inputs, "warm", work / f"cold-{len(cold) - 1}")

    digests = {f"cold{i}": c["digest"] for i, c in enumerate(cold)}
    digests["warm"] = warm["digest"]
    attempted, failed, problems = tally(
        cold + [warm], check_digests(workload, seed, digests))

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(c["wall_s"] for c in cold), "s"),
        "cpu_s": (median(c["cpu_s"] for c in cold), "s"),
        "peak_rss_mb": (median(c["peak_rss_mb"] for c in cold), "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
    }
    print(cold[-1]["text"])
    print(f"{workload} seed {seed} (input seed {inputs}): {len(cold)} cold "
          f"iteration(s) of {cold[0]['runs']} unique runs, "
          f"{SETUP_REPEATS} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<13} {failed / attempted:12.4f} frac")
    print(f"  digest {cold[0]['digest']}")
    print("  iterations: wall " + ", ".join(
        f"{c['wall_s']:.2f}" for c in cold) + ", cpu " + ", ".join(
        f"{c['cpu_s']:.2f}" for c in cold) + " (nominal host)")
    print_fidelity(cold[-1]["extras"])
    # Unscaled host seconds and the probe, for steady.py and for readers
    # who want to see what the rescaling removed.
    print("raw " + json.dumps({
        "setup_s": median(s["raw_wall_s"] for s in setups),
        "wall_s": median(c["raw_wall_s"] for c in cold),
        "cpu_s": median(c["raw_cpu_s"] for c in cold),
        "probe_ms": median(c["probe_ms"] for c in cold)}))
    return attempted, failed, problems, metrics


# ---------------------------------------------------------------------------
# --trace 1: the per-layer split
# ---------------------------------------------------------------------------

def traced_run(workload: str, seed: int, inputs: int, work: Path):
    """The workload serially in this process, with every layer wrapped."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine = workloads.make_engine(1, work / "cache")
        start = time.perf_counter()
        outcome = workloads.execute(workload, engine, inputs, work)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(SPANS / f"{workload}-seed{seed}.json")
    return tracer, outcome, wall, engine.profile


def per_layer(workload: str, seed: int, inputs: int, work: Path):
    import workloads

    cold = spawn(workload, inputs, "cold", work / "cold")
    reference = spawn(workload, inputs, "reference", work / "reference")
    tracer, outcome, wall, profile = traced_run(workload, seed, inputs,
                                                work / "traced")
    traced = workloads.summary(outcome)
    warm = spawn(workload, inputs, "warm", work / "cold")

    attempted, failed, problems = tally(
        [cold, reference, traced, warm], check_digests(workload, seed, {
            "cold": cold["digest"], "traced": traced["digest"],
            "warm": warm["digest"]}))
    traced_task_s = {repr(key): seconds for key, seconds in profile.items()}
    untraced_s = sum(reference["profile"].values())
    overhead = sum(traced_task_s[key]
                   for key in reference["profile"]) / untraced_s
    extras = cold["extras"]

    engine = cold["engine"]
    model = traced["model"]
    batches = tracer.batches
    replica_cycles = sum(cycles for _report, cycles in batches)
    _, plan_s = tracer.probe("plan")
    builds, build_s = tracer.probe("workloads.build")
    forks, fork_s = tracer.probe("kernel.fork")
    runs_done, _ = tracer.probe("kernel.finalize")
    _, kernel_self, kernel_s = tracer.layer("kernel")
    coh_calls, coh_self, _ = tracer.layer("coherence")
    mem_calls, mem_self, _ = tracer.layer("mem")
    core_calls, core_self, _ = tracer.layer("core")
    sync_calls, sync_self, _ = tracer.layer("sync")
    _, _, stats_s = tracer.layer("stats")
    accesses = model["mem_accesses"]
    metrics = {
        "plan.s": (plan_s, "s"),
        "plan.keys": (outcome.planned, "count"),
        "plan.unique_keys": (len(outcome.keys), "count"),
        "workloads.build_s": (build_s, "s"),
        "workloads.builds": (builds, "count"),
        "store.hits": (engine["store"]["hits"], "count"),
        "store.misses": (engine["store"]["misses"], "count"),
        "store.lru_hits": (engine["store"]["lru_hits"], "count"),
        "store.load_ms": (warm["store_load_ms"], "ms"),
        "engine.tasks": (engine["tasks"], "count"),
        "engine.batches": (engine["batches"], "count"),
        "engine.mean_batch_width": (engine["mean_batch_width"], "runs"),
        "engine.longest_task_s": (engine["longest_task_s"], "s"),
        "engine.worker_busy_frac": (engine["worker_busy_frac"], "frac"),
        "engine.replay_ms_per_run": (1000.0 * warm["replay_s"]
                                     / warm["runs"], "ms"),
        "service.landing_p50_ms": (extras.get("landing_p50_ms", 0.0), "ms"),
        "service.replay_s": (extras.get("replay_s", 0.0), "s"),
        "service.restart_recomputed": (extras.get("restart_recomputed", 0),
                                       "count"),
        "vector.batches": (len(batches), "count"),
        "vector.replicas": (sum(r.width for r, _ in batches), "count"),
        "vector.leader_served": (sum(r.leader_served for r, _ in batches),
                                 "count"),
        "vector.direct_runs": (sum(r.direct_runs for r, _ in batches),
                               "count"),
        "vector.spilled": (sum(r.spilled for r, _ in batches), "count"),
        "vector.s": (tracer.probe("vector.batch")[1], "s"),
        "vector.shared_frac": ((sum(r.shared_prefix_cycles
                                    for r, _ in batches) / replica_cycles)
                               if replica_cycles else 0.0, "frac"),
        "kernel.runs": (runs_done, "count"),
        "kernel.s": (kernel_s, "s"),
        "kernel.self_s": (kernel_self, "s"),
        "kernel.ns_per_access": (1e9 * kernel_s / accesses
                                 if accesses else 0.0, "ns"),
        "kernel.sim_instr_per_s": (model["sim_instructions"] / kernel_s
                                   if kernel_s else 0.0, "1/s"),
        "kernel.forks": (forks, "count"),
        "kernel.fork_s": (fork_s, "s"),
        "coherence.calls": (coh_calls, "count"),
        "coherence.self_s": (coh_self, "s"),
        "coherence.ns_per_call": (1e9 * coh_self / coh_calls
                                  if coh_calls else 0.0, "ns"),
        "mem.calls": (mem_calls, "count"),
        "mem.self_s": (mem_self, "s"),
        "core.calls": (core_calls, "count"),
        "core.self_s": (core_self, "s"),
        "core.checkpoint_s": (tracer.probe("core.checkpoint")[1], "s"),
        "core.rollback_s": (tracer.probe("core.rollback")[1], "s"),
        "sync.calls": (sync_calls, "count"),
        "sync.self_s": (sync_self, "s"),
        "stats.summarize_s": (stats_s, "s"),
        "model.sim_instructions": (model["sim_instructions"], "count"),
        "model.sim_cycles": (model["sim_cycles"], "cycles"),
        "model.mem_accesses": (accesses, "count"),
        "model.fastpath_hit_rate": (model["fastpath_hit_rate"], "frac"),
        "model.l1_hit_rate": (model["l1_hit_rate"], "frac"),
        "model.l2_hit_rate": (model["l2_hit_rate"], "frac"),
        "model.invalidations": (model["invalidations"], "count"),
        "model.checkpoints": (model["checkpoints"], "count"),
        "model.rollbacks": (model["rollbacks"], "count"),
        "model.mean_irec": (model["mean_irec"], "cores"),
        "model.faults_delivered": (model["faults_delivered"], "count"),
        "model.global_overhead_pct": (
            traced["extras"].get("global_overhead_pct", 0.0), "%"),
        "model.rebound_overhead_pct": (
            traced["extras"].get("rebound_overhead_pct", 0.0), "%"),
        "trace.overhead": (overhead, "x"),
        "trace.wall_s": (wall, "s"),
        "trace.self_frac": (tracer.self_total() / wall, "frac"),
        "host.raw_wall_s": (cold["raw_wall_s"], "s"),
        "host.raw_cpu_s": (cold["raw_cpu_s"], "s"),
        "host.probe_ms": (cold["probe_ms"], "ms"),
    }
    print(traced["text"])
    print(f"{workload} seed {seed}: traced serial run {wall:.2f}s, "
          f"untraced -j {workloads.JOBS} cold run {cold['wall_s']:.2f}s; "
          f"{reference['runs']} reference runs take {untraced_s:.2f} task "
          f"seconds untraced, {untraced_s * overhead:.2f} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:16.6g} {unit}")
    print(f"  digest {traced['digest']}")
    print_fidelity(traced["extras"])
    return attempted, failed, problems, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "harness" / "engine.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.input_seed(args.seed)
    work = WORK / f"{os.getpid()}"
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, inputs, work)
        else:
            result = end_to_end(args.workload, args.seed, inputs,
                                args.seconds, work)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems, metrics = result
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
