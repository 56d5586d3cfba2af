"""Kernel micro-benchmark: raw serial ``Machine.run()`` throughput,
plus workload-build wall time (cold generator vs. warm workload store).

Times a fixed (app, cores, scheme) matrix — the same matrix regardless
of ``REPRO_BENCH_FAST`` so numbers stay comparable across sessions —
and writes ``BENCH_speed.json`` at the repo root so the performance
trajectory of the simulation hot path is tracked from PR to PR.  The
``workload_store`` section times building the FAST benchmark app set
from its profiles (cold) against deserializing it from a freshly
populated content-addressed workload store (warm) — the build path the
engine's pool workers take.  The ``vector`` section sweeps the
replica-batch width of the vectorized campaign executor against
scalar per-replica runs at two fault densities, with per-replica
parity asserted.

The ``lint`` section times the ``reprolint`` static analysis pass over
the full shipped tree (parse + all six contract rules), so the
analyzer's cost — it runs on every CI push — stays visible from PR to
PR, and asserts the tree is clean while it is at it.

The ``memsys`` section aggregates the memory-system counters of the
matrix runs: the private-hit rate (accesses served without the
directory), L1/L2 hit rates, invalidations and residency epochs.

The ``engine`` section is the one part that measures the harness
itself: the dispatch-overhead microbench drives ≥500 tiny
store-cached runs through (a) the pre-chunking data plane — one
future per task, all submitted upfront, workers re-parsing the spec
from disk on every run — and (b) the shipped engine (windowed chunk
dispatch, worker-side spec LRU, mmap loads).  The workload is a
purpose-registered few-op trace so simulation time is negligible and
the wall clock is almost pure engine overhead; per-run overhead is
``wall/N - t_run`` with ``t_run`` the warm single-run cost measured
in-process.  The section also records the worker LRU hit rate and a
``-j`` scaling curve.

The ``service`` section drives one plan of small-but-real runs (a few
hundred microseconds each — a campaign of zero-cost runs is a landing
rate no simulator reaches) through a direct engine batch and through
the campaign service (spooled submission, streaming JSONL journal,
per-landing state accounting) and asserts the service path costs at
most 1.3x the batch — always-on serving must not tax the campaigns it
exists to carry.  Per-run submission-to-landed latencies come from the
journal's own timestamps.

The other sections deliberately bypass the runner/engine caches: they
measure the simulator kernel and the workload build path themselves,
not the harness.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path

from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    execute_run,
    resolve_config,
)
from repro.harness.workload_store import WorkloadStore
from repro.params import MachineConfig, Scheme
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.sim.vector import run_replica_batch
from repro.trace import TraceBuilder
from repro.workloads import (
    PARSEC_APACHE,
    SPLASH2,
    WorkloadSpec,
    get_workload,
    register_workload,
    unregister_workload,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_speed.json"

#: Fixed matrix: a cheap-scheme baseline, the two main scheme families,
#: a barrier-heavy app and a PARSEC app (coherence-traffic heavy).
MATRIX = (
    ("blackscholes", 16, Scheme.REBOUND),
    ("ocean", 16, Scheme.GLOBAL),
    ("water_sp", 8, Scheme.NONE),
    ("barnes", 8, Scheme.REBOUND_BARR),
    ("streamcluster", 8, Scheme.REBOUND),
)
SCALE = 40
INTERVALS = 2.0
REPEATS = 5  # wall-clock is min-of-N to shrug off machine noise

#: The FAST benchmark app set (benchmarks/conftest.py under
#: ``REPRO_BENCH_FAST=1``), timed at one representative size.
STORE_APPS = tuple(SPLASH2[:4] + PARSEC_APACHE[:3])
STORE_CORES = 16


def _run_once(app: str, n_cores: int, scheme: Scheme):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=SCALE)
    workload = get_workload(app, n_cores, config, intervals=INTERVALS,
                            seed=1)
    machine = Machine(config, workload)
    start = time.perf_counter()
    stats = machine.run()
    return stats, time.perf_counter() - start


#: Warm store loads finish far below wall-clock resolution for a single
#: pass (a one-pass timing rounded to 0.0s and reported a nonsense
#: 61510x speedup); each timed warm window runs this many passes and
#: divides, so the per-pass number is resolvable.
WARM_PASSES_PER_WINDOW = 25


def _measure_workload_store() -> dict:
    """Cold generator build vs. warm store load for the FAST app set.

    Min-of-N methodology on both sides: each cold pass builds into its
    own fresh store directory (so every pass really generates and
    serializes); each warm measurement times a *window* of
    ``WARM_PASSES_PER_WINDOW`` replay passes and divides, because a
    single warm pass is faster than the clock can resolve.  If the
    per-pass time still comes out unresolvable the speedup is reported
    as ``"n/a"`` rather than dividing by ~0.
    """
    config = MachineConfig.scaled(n_cores=STORE_CORES,
                                  scheme=Scheme.REBOUND, scale=SCALE)
    cold = float("inf")
    warm = float("inf")
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            store = WorkloadStore(Path(tmp))
            start = time.perf_counter()
            for app in STORE_APPS:
                store.get_or_build(app, STORE_CORES, config, INTERVALS, 1)
            cold = min(cold, time.perf_counter() - start)
            assert store.misses == len(STORE_APPS)
            for _ in range(REPEATS):
                start = time.perf_counter()
                for _ in range(WARM_PASSES_PER_WINDOW):
                    for app in STORE_APPS:
                        store.get_or_build(app, STORE_CORES, config,
                                           INTERVALS, 1)
                window = time.perf_counter() - start
                warm = min(warm, window / WARM_PASSES_PER_WINDOW)
            assert store.hits == (REPEATS * WARM_PASSES_PER_WINDOW *
                                  len(STORE_APPS))
    resolvable = warm > 1e-7          # ~100ns: below this the clock lied
    return {
        "apps": list(STORE_APPS),
        "n_cores": STORE_CORES,
        "cold_build_s": round(cold, 4),
        "warm_load_s": round(warm, 6),
        "warm_passes_per_window": WARM_PASSES_PER_WINDOW,
        "speedup": round(cold / warm, 1) if resolvable else "n/a",
    }


#: Replica-batch sweep of the vectorized campaign executor: the FAST
#: campaign config (blackscholes x8 Rebound), batch widths N, at two
#: fault densities — the paper's default dense campaign (MTTF = one
#: checkpoint interval, replicas diverge early, modest sharing) and a
#: sparse campaign (MTTF = eight intervals, most replicas ride the
#: leader almost to the end).  Scalar N=1..64 runs are the expensive
#: side, so this section is single-pass instead of min-of-REPEATS.
VECTOR_APP = "blackscholes"
VECTOR_CORES = 8
VECTOR_WIDTHS = (1, 4, 16, 64)
VECTOR_DENSITIES = (("dense", 1.0), ("sparse", 8.0))


def _measure_vector() -> dict:
    """Scalar vs. vectorized campaign throughput, parity-checked.

    Every vector replica's runtime is asserted equal to its scalar
    twin's — the benchmark refuses to report a speedup bought with
    different results.
    """
    config = MachineConfig.scaled(n_cores=VECTOR_CORES,
                                  scheme=Scheme.REBOUND, scale=SCALE)
    workload = get_workload(VECTOR_APP, VECTOR_CORES, config,
                            intervals=INTERVALS, seed=1)
    interval = config.checkpoint_interval
    horizon = INTERVALS * interval
    rows = []
    for label, mttf_intervals in VECTOR_DENSITIES:
        for width in VECTOR_WIDTHS:
            plans = [list(FaultPlan.from_mttf(
                seed=100 + i, mttf=mttf_intervals * interval,
                horizon=horizon, n_cores=VECTOR_CORES).faults)
                for i in range(width)]
            start = time.perf_counter()
            scalar = [Machine(config, workload,
                              faults=faults or None).run()
                      for faults in plans]
            scalar_wall = time.perf_counter() - start
            start = time.perf_counter()
            batch = run_replica_batch(config, workload, plans)
            vector_wall = time.perf_counter() - start
            for ref, got in zip(scalar, batch.stats):
                assert ref.runtime == got.runtime, \
                    f"{label} N={width}: vector diverged from scalar"
                assert ref.cores == got.cores
            cycles = sum(s.runtime for s in scalar)
            rows.append({
                "density": label,
                "mttf_intervals": mttf_intervals,
                "width": width,
                "spilled": batch.report.spilled,
                "direct_runs": batch.report.direct_runs,
                "leader_served": batch.report.leader_served,
                "scalar_wall_s": round(scalar_wall, 4),
                "vector_wall_s": round(vector_wall, 4),
                "scalar_sim_cycles_per_s": round(cycles / scalar_wall),
                "vector_sim_cycles_per_s": round(cycles / vector_wall),
                "speedup": round(scalar_wall / vector_wall, 2),
            })
    return {
        "app": VECTOR_APP,
        "n_cores": VECTOR_CORES,
        "scheme": Scheme.REBOUND.value,
        "note": ("exact prefix sharing: replicas are bit-identical to "
                 "scalar runs; dense campaigns diverge early and gain "
                 "modestly, sparse campaigns approach width-fold"),
        "rows": rows,
    }


def _measure_memsys(matrix_stats) -> dict:
    """Memory-system counters aggregated over the matrix runs."""
    accesses = sum(s.mem_accesses for s in matrix_stats)
    fast_ops = sum(s.fastpath_loads + s.fastpath_stores
                   for s in matrix_stats)
    loads = sum(s.l1_hits + s.l1_misses for s in matrix_stats)
    l2_refs = sum(s.l2_hits + s.l2_misses for s in matrix_stats)
    return {
        "mem_accesses": accesses,
        "fastpath_hit_rate": round(fast_ops / accesses, 4),
        "l1_hit_rate": round(sum(s.l1_hits for s in matrix_stats)
                             / loads, 4),
        "l2_hit_rate": round(sum(s.l2_hits for s in matrix_stats)
                             / l2_refs, 4),
        "invalidations": sum(s.invalidations for s in matrix_stats),
        "fastpath_epoch_bumps": sum(s.fastpath_epoch_bumps
                                    for s in matrix_stats),
    }


def _measure_lint() -> dict:
    """Wall time of one full ``reprolint`` pass over the shipped tree
    (min-of-N; the parse and the import graph dominate)."""
    from repro.analysis import run_lint

    report = None
    wall = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = run_lint()
        wall = min(wall, time.perf_counter() - start)
    assert report.ok, report.render()
    return {
        "rules": list(report.rules),
        "checked_files": report.checked_files,
        "findings": len(report.findings),
        "suppressed": report.suppressed,
        "wall_s": round(wall, 4),
        "files_per_s": round(report.checked_files / wall),
    }


#: Dispatch-overhead microbench: ≥500 tiny store-cached runs (ISSUE 8
#: acceptance floor), distinct keys sharing one store spec, on a
#: purpose-registered workload whose simulation costs microseconds —
#: so the wall clock is almost pure data-plane overhead.
ENGINE_RUNS = 500
ENGINE_THREADS = 2
ENGINE_JOBS_CURVE = (1, 2, 4)
#: Per-run overhead floor (seconds): the chunked plane amortizes to
#: below wall-clock resolution at N=500, so the ratio denominator is
#: clamped to keep the reported speedup conservative.
ENGINE_OVERHEAD_FLOOR = 10e-6


def _tiny_workload(n_threads, config, intervals, seed):
    """A few-op trace per thread: the simulation is over in
    microseconds, leaving dispatch as the measured quantity."""
    traces = []
    for tid in range(n_threads):
        trace = TraceBuilder()
        trace.compute(40 + seed)
        trace.store(tid)
        trace.load(tid)
        traces.append(trace.build())
    return WorkloadSpec(name="bench_tiny", traces=traces)


def _per_task_run(key, store_root):
    """One pre-chunking worker call: a store with the LRU disabled
    re-reads and re-parses the spec from disk on every run, as the old
    ``_timed_run`` data plane did."""
    return execute_run(key, WorkloadStore(store_root, lru_capacity=0))


def _measure_engine() -> dict:
    """Chunked data plane vs. per-task submission, on near-free runs.

    The baseline leg replays the pre-chunking engine faithfully: one
    future per task, all submitted upfront (deep executor queue),
    drained with ``wait(FIRST_COMPLETED)``, every worker run paying a
    fresh disk read + parse of the spec.  The measured leg is the
    shipped ``ExperimentEngine`` default: affinity-grouped chunks
    through a bounded submission window, specs served from the
    worker-side LRU.  Both legs are min-of-REPEATS wall clocks; the
    warm single-run cost ``t_run`` (measured in-process against an
    LRU-serving store) is subtracted so the per-run overheads compare
    engine machinery, not simulation.
    """
    if multiprocessing.get_start_method() != "fork":
        # Workers must inherit the bench-registered workload builder.
        return {"skipped": "requires the fork start method"}
    tag = register_workload("bench_tiny", _tiny_workload,
                            fingerprint="bench-tiny-v1")
    jobs = max(1, os.cpu_count() or 1)
    keys = [RunKey(tag, ENGINE_THREADS, Scheme.GLOBAL, 1.0, 1, SCALE,
                   io_every=10 + i) for i in range(ENGINE_RUNS)]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            store = WorkloadStore(Path(tmp))
            store.get_or_build(tag, ENGINE_THREADS,
                               resolve_config(keys[0]), 1.0, 1)
            t_run = float("inf")
            for key in keys[:20]:
                start = time.perf_counter()
                execute_run(key, store)
                t_run = min(t_run, time.perf_counter() - start)

            per_task_wall = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    pending = {pool.submit(_per_task_run, key, tmp)
                               for key in keys}
                    while pending:
                        done, pending = wait(
                            pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            future.result()
                per_task_wall = min(per_task_wall,
                                    time.perf_counter() - start)

            chunked_wall = float("inf")
            counters = None
            for _ in range(3):
                eng = ExperimentEngine(jobs=jobs, use_disk_cache=False,
                                       vector=False)
                eng.workload_store = WorkloadStore(Path(tmp))
                start = time.perf_counter()
                eng.run_many(keys)
                chunked_wall = min(chunked_wall,
                                   time.perf_counter() - start)
                counters = eng.store_counters()

            curve = []
            for j in ENGINE_JOBS_CURVE:
                eng = ExperimentEngine(jobs=j, use_disk_cache=False,
                                       vector=False)
                eng.workload_store = WorkloadStore(Path(tmp))
                start = time.perf_counter()
                eng.run_many(keys)
                curve.append({"jobs": j,
                              "wall_s": round(time.perf_counter() - start,
                                              4)})
    finally:
        unregister_workload("bench_tiny")

    per_task_overhead = per_task_wall / ENGINE_RUNS - t_run
    chunked_overhead = max(chunked_wall / ENGINE_RUNS - t_run,
                           ENGINE_OVERHEAD_FLOOR)
    ratio = per_task_overhead / chunked_overhead
    lru_rate = counters["lru_hits"] / max(1, counters["hits"])
    # ISSUE 8 acceptance: the chunked plane must carry at least 3x less
    # engine overhead per run than per-task submission.
    assert ratio >= 3.0, (
        f"chunked dispatch overhead ratio {ratio:.1f}x < 3x "
        f"(per-task {per_task_overhead * 1e3:.3f} ms/run, chunked "
        f"{chunked_overhead * 1e3:.3f} ms/run)")
    assert lru_rate >= 0.8, f"worker LRU hit rate {lru_rate:.2f} < 0.8"
    return {
        "runs": ENGINE_RUNS,
        "jobs": jobs,
        "t_run_ms": round(t_run * 1e3, 4),
        "per_task": {
            "wall_s": round(per_task_wall, 4),
            "overhead_ms_per_run": round(per_task_overhead * 1e3, 4),
        },
        "chunked": {
            "wall_s": round(chunked_wall, 4),
            "overhead_ms_per_run": round(chunked_overhead * 1e3, 4),
            "lru_hit_rate": round(lru_rate, 4),
        },
        "overhead_ratio": round(ratio, 1),
        "jobs_curve": curve,
        "note": ("per-run overhead is wall/N - t_run; the chunked "
                 "denominator is floored at "
                 f"{ENGINE_OVERHEAD_FLOOR * 1e6:.0f}us so the ratio "
                 "stays conservative"),
    }


#: Service-overhead bench: a direct ``run_many`` batch against the full
#: campaign-service path (spooled submission -> serve -> journaled
#: landings) over the same plan.  The service may cost at most 30%
#: over batch dispatch.  Unlike the engine section's near-free runs
#: (which isolate pure dispatch overhead), the service runs carry a
#: small-but-real simulation cost — the quantity under test is the
#: end-to-end tax on a campaign, and a campaign of zero-cost runs is
#: a landing-rate no simulator reaches.
SERVICE_RUNS = 200
SERVICE_OPS = 60          # trace ops per thread: ~0.5ms/run simulated
SERVICE_MAX_OVERHEAD = 1.3


def _service_workload(n_threads, config, intervals, seed):
    """A short-but-real trace per thread (compare ``_tiny_workload``:
    the service bench wants run costs in the hundreds of microseconds,
    the dispatch bench wants them free)."""
    traces = []
    for tid in range(n_threads):
        trace = TraceBuilder()
        for op in range(SERVICE_OPS):
            trace.compute(20 + (seed + op) % 7)
            trace.store((tid * SERVICE_OPS + op) % 64)
            trace.load((op * 3 + tid) % 64)
        traces.append(trace.build())
    return WorkloadSpec(name="bench_service", traces=traces)


def _measure_service() -> dict:
    """Submission-to-landed latency of the campaign service vs. a
    direct engine batch of the same plan.

    Both legs run the identical ``SERVICE_RUNS`` tiny store-cached
    keys on fresh engines (each with an empty result cache, scalar) —
    the delta is pure service machinery: the spool round-trip, the
    journal, the per-landing state accounting.  Per-run landing latency comes from
    the journal's own timestamps against the job's submission time.
    """
    from repro.harness.service import CampaignService

    if multiprocessing.get_start_method() != "fork":
        return {"skipped": "requires the fork start method"}
    tag = register_workload("bench_service", _service_workload,
                            fingerprint="bench-service-v1")
    jobs = max(1, os.cpu_count() or 1)
    keys = [RunKey(tag, ENGINE_THREADS, Scheme.GLOBAL, 1.0, 1, SCALE,
                   io_every=10 + i) for i in range(SERVICE_RUNS)]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            store_root = Path(tmp) / "store"
            WorkloadStore(store_root).get_or_build(
                tag, ENGINE_THREADS, resolve_config(keys[0]), 1.0, 1)

            def fresh_engine(cache: Path) -> ExperimentEngine:
                # The service reads landed results back from the result
                # cache, so both legs write one (empty at the start of
                # every round: nothing replays).
                eng = ExperimentEngine(jobs=jobs, cache_dir=cache,
                                       use_disk_cache=True, vector=False)
                eng.workload_store = WorkloadStore(store_root)
                return eng

            # Interleaved A/B rounds; the asserted ratio is the
            # *median of per-round paired ratios*, so a load spike
            # charges both legs of its round and cancels out instead
            # of skewing whichever leg it happened to hit.
            batch_wall = float("inf")
            service_wall = float("inf")
            ratios: list[float] = []
            latencies: list[float] = []
            for round_no in range(REPEATS):
                eng = fresh_engine(Path(tmp) / f"batch{round_no}")
                start = time.perf_counter()
                eng.run_many(keys)
                batch = time.perf_counter() - start
                batch_wall = min(batch_wall, batch)

                spool = Path(tmp) / f"spool{round_no}"
                service = CampaignService(
                    spool_dir=spool,
                    engine=fresh_engine(Path(tmp) / f"cache{round_no}"))
                start = time.perf_counter()
                job_id = service.submit(keys, label="bench")
                service.serve(drain=True)
                wall = time.perf_counter() - start
                status = service.status(job_id)
                assert status["state"] == "done", status
                assert status["computed"] == SERVICE_RUNS, status
                ratios.append(wall / batch)
                if wall < service_wall:
                    service_wall = wall
                    submitted = status["submitted_at"]
                    latencies = sorted(
                        json.loads(line)["t"] - submitted
                        for line in (spool / "journal.jsonl")
                        .read_text().splitlines())
    finally:
        unregister_workload("bench_service")

    ratio = sorted(ratios)[len(ratios) // 2]
    # ISSUE 10 acceptance: the service path (spool + journal + state
    # accounting) must stay within 30% of raw batch dispatch.
    assert ratio <= SERVICE_MAX_OVERHEAD, (
        f"service overhead {ratio:.2f}x > {SERVICE_MAX_OVERHEAD}x "
        f"(batch {batch_wall:.3f}s, service {service_wall:.3f}s)")
    return {
        "runs": SERVICE_RUNS,
        "jobs": jobs,
        "batch_wall_s": round(batch_wall, 4),
        "service_wall_s": round(service_wall, 4),
        "overhead_ratio": round(ratio, 3),
        "max_overhead_ratio": SERVICE_MAX_OVERHEAD,
        "landing_latency_ms": {
            "first": round(latencies[0] * 1e3, 2),
            "median": round(latencies[len(latencies) // 2] * 1e3, 2),
            "last": round(latencies[-1] * 1e3, 2),
        },
        "note": ("wall is submit->all-landed on a fresh spool; the "
                 "ratio is the median of per-round paired ratios; "
                 "landing latencies are journal timestamps minus the "
                 "job's submission time"),
    }


def test_kernel_speed():
    results = []
    matrix_stats = []
    total_wall = 0.0
    total_cycles = 0.0
    total_instr = 0
    for app, n_cores, scheme in MATRIX:
        wall = float("inf")
        stats = None
        for _ in range(REPEATS):
            stats, elapsed = _run_once(app, n_cores, scheme)
            wall = min(wall, elapsed)
        assert stats.runtime > 0
        matrix_stats.append(stats)
        results.append({
            "app": app,
            "n_cores": n_cores,
            "scheme": scheme.value,
            "wall_s": round(wall, 4),
            "sim_cycles": stats.runtime,
            "instructions": stats.total_instructions,
            "sim_cycles_per_s": round(stats.runtime / wall),
            "instr_per_s": round(stats.total_instructions / wall),
            "fastpath_hit_rate": round(stats.fastpath_hit_rate, 4),
        })
        total_wall += wall
        total_cycles += stats.runtime
        total_instr += stats.total_instructions
    store = _measure_workload_store()
    memsys = _measure_memsys(matrix_stats)
    vector = _measure_vector()
    lint = _measure_lint()
    engine = _measure_engine()
    service = _measure_service()
    payload = {
        "schema": 7,
        "scale": SCALE,
        "intervals": INTERVALS,
        "repeats": REPEATS,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
        "total_wall_s": round(total_wall, 4),
        "aggregate_sim_cycles_per_s": round(total_cycles / total_wall),
        "aggregate_instr_per_s": round(total_instr / total_wall),
        "workload_store": store,
        "memsys": memsys,
        "vector": vector,
        "lint": lint,
        "engine": engine,
        "service": service,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"kernel speed: {payload['aggregate_sim_cycles_per_s']:,} "
          f"simulated cycles/s, {payload['aggregate_instr_per_s']:,} "
          f"instr/s over {total_wall:.2f}s wall "
          f"({len(results)} configurations)")
    for row in results:
        print(f"  {row['app']:14s} x{row['n_cores']:<3d} "
              f"{row['scheme']:14s} {row['wall_s']:7.3f}s  "
              f"{row['sim_cycles_per_s']:>12,} simcyc/s")
    speedup = store["speedup"]
    print(f"workload build ({len(store['apps'])} FAST apps "
          f"x{store['n_cores']}): cold {store['cold_build_s']:.3f}s, "
          f"store-warm {store['warm_load_s'] * 1e3:.3f}ms/pass "
          f"({speedup if isinstance(speedup, str) else f'{speedup:.0f}x'})")
    print(f"memsys: private-hit rate "
          f"{memsys['fastpath_hit_rate']:.1%} over "
          f"{memsys['mem_accesses']:,} accesses "
          f"(L1 {memsys['l1_hit_rate']:.1%}, "
          f"L2 {memsys['l2_hit_rate']:.1%}, "
          f"{memsys['invalidations']} invalidations)")
    print(f"vector campaigns ({vector['app']} x{vector['n_cores']} "
          f"{vector['scheme']}):")
    for row in vector["rows"]:
        print(f"  {row['density']:6s} N={row['width']:<3d} "
              f"scalar {row['scalar_wall_s']:7.3f}s  "
              f"vector {row['vector_wall_s']:7.3f}s  "
              f"{row['speedup']:5.2f}x "
              f"(spilled {row['spilled']}, direct "
              f"{row['direct_runs']}, served "
              f"{row['leader_served']})")
    print(f"reprolint ({','.join(lint['rules'])}): "
          f"{lint['checked_files']} files in {lint['wall_s']:.3f}s "
          f"({lint['files_per_s']:,} files/s, "
          f"{lint['findings']} findings)")
    if "skipped" in engine:
        print(f"engine dispatch: {engine['skipped']}")
    else:
        print(f"engine dispatch ({engine['runs']} tiny runs, "
              f"-j {engine['jobs']}): per-task "
              f"{engine['per_task']['overhead_ms_per_run']:.3f} ms/run, "
              f"chunked "
              f"{engine['chunked']['overhead_ms_per_run']:.3f} ms/run "
              f"({engine['overhead_ratio']:.0f}x lower overhead, "
              f"worker LRU {engine['chunked']['lru_hit_rate']:.0%})")
        print("  -j curve: " + ", ".join(
            f"j={row['jobs']} {row['wall_s']:.3f}s"
            for row in engine["jobs_curve"]))
    if "skipped" in service:
        print(f"campaign service: {service['skipped']}")
    else:
        lat = service["landing_latency_ms"]
        print(f"campaign service ({service['runs']} tiny runs, "
              f"-j {service['jobs']}): batch "
              f"{service['batch_wall_s']:.3f}s, service "
              f"{service['service_wall_s']:.3f}s "
              f"({service['overhead_ratio']:.2f}x, cap "
              f"{service['max_overhead_ratio']}x); landing latency "
              f"first {lat['first']:.0f}ms / median "
              f"{lat['median']:.0f}ms / last {lat['last']:.0f}ms")
