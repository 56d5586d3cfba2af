"""Command-line entry point: ``python -m repro.harness [experiment ...]``.

Runs the requested experiments (default: all) at a reduced scale suitable
for an interactive session and prints each figure/table as text.

Before anything runs, the planners of every requested experiment are
unioned and deduplicated, and the engine executes the missing runs in one
batch — in parallel across ``--jobs`` worker processes and backed by the
persistent result cache — after which the drivers render from cache hits.

Options::

    --cores-splash N   processor count for SPLASH-2 figures (default 64)
    --cores-parsec N   processor count for PARSEC/Apache (default 24)
    --scale N          config down-scale factor (default 40)
    --intervals X      run length in checkpoint intervals (default 3)
    --quick            tiny runs (8 cores, 2 intervals) for smoke testing
    -j / --jobs N      worker processes (default REPRO_JOBS or CPU count)
    --cache-dir DIR    result cache location (default benchmarks/.cache)
    --no-cache         bypass the persistent result cache
    --no-vector        run every key as its own batch (REPRO_VECTOR=0)
    --profile          print a per-run wall-clock table and the
                       aggregated workload-store counters at the end

Fault campaigns get their own subcommand (see ``campaign --help``)::

    python -m repro.harness campaign --seed 7 --seeds 5 --mttf 1.0 \\
        --apps blackscholes --cores 8 16 --schemes global rebound rebound@4

Every campaign run is identified by its seed-deterministic fault plan,
so repeated invocations replay from the engine's disk cache.

Ad-hoc parameter sweeps over *any* machine-config axis (detection
latency, memory timing, cache geometry, ...) get the ``sweep``
subcommand; each ``--axis name=v1,v2,...`` adds one grid dimension and
every grid point becomes a cached, pool-parallel engine run::

    python -m repro.harness sweep --axis detection_latency=2000,10000,50000 \\
        --apps blackscholes --cores 8 --schemes global rebound

``--apps`` (alias ``--workloads``) tokens resolve through the workload
registry, so generators registered via
``repro.workloads.register_workload`` are addressable by name alongside
the 18 built-in application profiles.

The ``serve`` subcommand runs the persistent campaign service
(:mod:`repro.harness.service`): a file-spool job queue, a JSONL
journal indexing landed results in the result cache, and
kill-resilient restart replay.  Clients submit priority-ordered jobs
and watch them from any process; the server shards them across the
engine's worker pool.  ``summary`` reads the result cache, so give it
the server's ``--cache-dir``; the service refuses ``--no-cache``::

    python -m repro.harness serve start --drain            # the server
    python -m repro.harness serve submit --quick           # a client
    python -m repro.harness serve status [JOB]
    python -m repro.harness serve cancel JOB
    python -m repro.harness serve drain --timeout 600
    python -m repro.harness serve summary JOB
    python -m repro.harness serve stop

``campaign --serve`` and ``sweep --serve`` route their plans through
the same spool/journal path, so every figure can exercise the service.

The ``lint`` subcommand runs ``reprolint``, the contract-enforcing
static analysis pass (determinism / fork-safety / fingerprint coverage
/ cache-identity hygiene — see :mod:`repro.analysis`) over the shipped
tree and exits non-zero on any unsuppressed finding::

    python -m repro.harness lint [--json] [--rules RL001,RL003]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.engine import ExperimentEngine
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    CAMPAIGN_APPS,
    fig6_9_campaign,
    parse_variant,
    plan_experiment,
    plan_fig6_9,
    run_experiment,
)
from repro.harness.report import format_table
from repro.harness.runner import Runner
from repro.harness.scenario import SweepSpec, parse_axis
from repro.workloads import (
    ALL_APPS,
    PARSEC_APACHE,
    SPLASH2,
    resolve_workload,
    workload_name,
)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "the CPU count)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache directory "
                             "(default: REPRO_CACHE_DIR or "
                             "benchmarks/.cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--vector", dest="vector", action="store_true",
                        default=None,
                        help="batch same-workload fault replicas through "
                             "the vectorized executor (default: on)")
    parser.add_argument("--no-vector", dest="vector", action="store_false",
                        help="run every key as its own batch (same as "
                             "REPRO_VECTOR=0)")


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--serve", action="store_true",
                        help="route the planned runs through the "
                             "campaign service (spooled job + JSONL "
                             "result journal) instead of a direct "
                             "engine batch")
    parser.add_argument("--spool", default=None,
                        help="service spool directory (default: "
                             "REPRO_SERVE_SPOOL or <cache-dir>/service)")


def _service_prefetch(engine: ExperimentEngine, keys, spool,
                      label: str) -> str:
    """Run ``keys`` as one spooled service job, draining in-process.

    Lands every result in the engine memo (so the caller's driver
    renders from cache hits), in the result cache and in the spool's
    journal — a later ``serve summary JOB`` with the same
    ``--cache-dir`` reproduces the table without re-running.
    """
    from repro.harness.service import CampaignService

    keys = list(dict.fromkeys(keys))
    service = CampaignService(spool_dir=spool, engine=engine)
    job_id = service.submit(keys, label=label)
    print(f"[serve] spool {service.spool}: job {job_id} "
          f"({len(keys)} runs)")
    service.serve(drain=True)
    status = service.status(job_id) or {}
    print(f"[serve] job {job_id}: {status.get('state')} "
          f"({status.get('computed', 0)} computed, "
          f"{status.get('replayed', 0)} replayed)")
    return job_id


def _build_engine_and_runner(args) -> tuple[ExperimentEngine, Runner]:
    engine = ExperimentEngine(
        jobs=args.jobs, cache_dir=args.cache_dir,
        use_disk_cache=False if args.no_cache else None, verbose=True,
        vector=args.vector)
    runner = Runner(scale=args.scale, intervals=args.intervals,
                    verbose=True, engine=engine)
    return engine, runner


def campaign_main(argv: list[str]) -> int:
    """``python -m repro.harness campaign``: seeded Monte Carlo faults."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness campaign",
        description="Monte Carlo fault campaign: seeded multi-fault "
                    "recovery runs aggregated into availability, "
                    "work-lost and IREC/recovery distributions.")
    parser.add_argument("--seed", type=int, default=100,
                        help="base fault-plan seed (run i uses seed+i)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeded runs per campaign cell")
    parser.add_argument("--mttf", type=float, default=1.0,
                        help="machine-wide MTTF in checkpoint intervals")
    parser.add_argument("--apps", "--workloads", dest="apps", nargs="+",
                        default=None,
                        help=f"registered workload names (default "
                             f"{CAMPAIGN_APPS})")
    parser.add_argument("--cores", type=int, nargs="+", default=[8, 16],
                        help="processor counts to sweep")
    parser.add_argument("--schemes", nargs="+",
                        default=["global", "rebound", "rebound@4"],
                        help="scheme variants; 'scheme@K' runs with "
                             "Dep-register cluster size K")
    parser.add_argument("--scale", type=int, default=40)
    parser.add_argument("--intervals", type=float, default=3.0)
    _add_engine_flags(parser)
    _add_serve_flags(parser)
    args = parser.parse_args(argv)
    variants = tuple(parse_variant(token) for token in args.schemes)
    apps = ([resolve_workload(token) for token in args.apps]
            if args.apps is not None else None)
    engine, runner = _build_engine_and_runner(args)
    start = time.time()
    if args.serve:
        # Land the whole plan through the service (spool + journal);
        # the driver below then renders purely from memo hits.
        _service_prefetch(
            engine, plan_fig6_9(runner, apps, tuple(args.cores),
                                variants, args.seeds, args.seed,
                                args.mttf),
            args.spool, label="campaign")
    result = fig6_9_campaign(
        runner, apps=apps, sizes=tuple(args.cores),
        variants=variants, n_seeds=args.seeds, base_seed=args.seed,
        mttf_intervals=args.mttf)
    print()
    print(result.render())
    print(f"[campaign took {time.time() - start:.1f}s: "
          f"{len(engine.profile)} computed, {engine.disk_hits} from "
          f"disk cache]")
    return 0


def sweep_main(argv: list[str]) -> int:
    """``python -m repro.harness sweep``: grid sweep over config axes.

    Exercises the scenario layer end-to-end: every ``--axis`` value
    combination becomes a ``RunKey`` with config overrides, planned as
    one batch through the engine (process pool + persistent cache).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Parameter sweep over arbitrary machine-config "
                    "axes (e.g. --axis detection_latency=2000,10000); "
                    "every grid point is a cached engine run.")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="axis to sweep (repeatable): a scalar "
                             "MachineConfig field (dotted nested fields "
                             "like l1.size_bytes included) or a RunKey "
                             "dimension (seed, intervals, io_every, "
                             "fault_at, cluster); note 'seed' is the "
                             "workload seed, not the back-off RNG "
                             "config field")
    parser.add_argument("--apps", "--workloads", dest="apps", nargs="+",
                        default=["blackscholes"],
                        help="registered workload names to sweep "
                             "(default blackscholes)")
    parser.add_argument("--cores", type=int, nargs="+", default=[8],
                        help="processor counts to sweep")
    parser.add_argument("--schemes", nargs="+", default=["rebound"],
                        help="scheme variants; 'scheme@K' runs with "
                             "Dep-register cluster size K")
    parser.add_argument("--fault-at", type=float, default=None,
                        help="inject one core-0 fault at this cycle")
    parser.add_argument("--scale", type=int, default=40)
    parser.add_argument("--intervals", type=float, default=None,
                        help="run length in checkpoint intervals "
                             "(default 3, or 1.5 with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke-test runs (4 cores, scale 300, "
                             "1.5 intervals)")
    _add_engine_flags(parser)
    _add_serve_flags(parser)
    args = parser.parse_args(argv)
    if not args.axis:
        parser.error("at least one --axis NAME=V1,V2,... is required")
    axes: dict[str, tuple] = {}
    for token in args.axis:
        name, values = parse_axis(token)
        if name in axes:
            parser.error(f"--axis {name} given twice; merge the values "
                         f"into one --axis {name}=v1,v2,...")
        axes[name] = values
    if "intervals" in axes and args.intervals is not None:
        parser.error("--intervals conflicts with --axis intervals=...")
    if args.quick:
        args.cores = [4]
        args.scale = 300
    if args.intervals is None:
        args.intervals = 1.5 if args.quick else 3.0
    if "seed" in axes:
        # The one name that is both a RunKey dimension and a config
        # field; say which one the sweep addresses instead of silently
        # answering a different question.
        print("[sweep] note: axis 'seed' sweeps the workload seed "
              "(RunKey.seed); the protocol back-off RNG seed "
              "(MachineConfig.seed) is not CLI-sweepable", flush=True)
    variants = tuple(parse_variant(token) for token in args.schemes)
    apps = [resolve_workload(token) for token in args.apps]
    if "cluster" in axes and any(v.cluster != 1 for v in variants):
        parser.error("give the cluster size either as --schemes "
                     "scheme@K or as --axis cluster=..., not both")
    if "fault_at" in axes and args.fault_at is not None:
        parser.error("--fault-at conflicts with --axis fault_at=...")
    engine, runner = _build_engine_and_runner(args)
    spec = SweepSpec()
    for variant in variants:
        base = {"scheme": variant.scheme, "app": apps,
                "n_cores": args.cores}
        if "cluster" not in axes:
            base["cluster"] = variant.cluster
        if "fault_at" not in axes:
            base["fault_at"] = args.fault_at
        spec += SweepSpec.grid(**base, **axes)
    points = spec.keyed_points(runner)
    print(f"[sweep] {len(axes)} axis/axes x {len(variants)} variant(s): "
          f"{len(points)} runs, jobs={engine.jobs}, cache="
          f"{'off' if not engine.use_disk_cache else engine.cache_dir}")
    start = time.time()
    if args.serve:
        _service_prefetch(engine, [key for key, _ in points],
                          args.spool, label="sweep")
    else:
        runner.prefetch(key for key, _ in points)
    axis_names = [name for name in spec.axis_names() if name in axes]
    rows = []
    for key, point in points:
        stats = runner.engine.run(key)
        # A swept cluster gets its own column; suffixing scheme@K too
        # would print the same value twice per row.
        rows.append([
            workload_name(point["app"]), point["n_cores"],
            point["scheme"].value + (f"@{point['cluster']}"
                                     if point["cluster"] != 1
                                     and "cluster" not in axes else ""),
            *(point[name] for name in axis_names),
            f"{stats.runtime:,.0f}",
            len(stats.checkpoints),
            len(stats.rollbacks),
            f"{100 * stats.availability():.2f}%",
            f"{100 * stats.effective_availability():.2f}%",
        ])
    print()
    print(format_table(
        ["app", "cores", "scheme", *axis_names, "runtime (cyc)",
         "ckpts", "rollbacks", "availability", "eff avail"],
        rows, title=f"Sweep over {', '.join(axis_names)}"))
    print(f"[sweep took {time.time() - start:.1f}s: "
          f"{len(engine.profile)} computed, {engine.disk_hits} from "
          f"disk cache]")
    return 0


def serve_main(argv: list[str]) -> int:
    """``python -m repro.harness serve``: the persistent campaign
    service over a file-based job spool (see
    :mod:`repro.harness.service`)."""
    from repro.harness.service import CampaignService, default_spool_dir

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Persistent campaign service: spool jobs, stream "
                    "results to a JSONL journal, survive restarts with "
                    "zero recomputation of landed runs.")
    parser.add_argument("action",
                        choices=["start", "submit", "status", "cancel",
                                 "drain", "summary", "stop"],
                        help="start: run the server loop; submit: spool "
                             "a fig6_9 campaign job; status/cancel/"
                             "drain/summary/stop: client operations")
    parser.add_argument("job", nargs="?", default=None,
                        help="job id (cancel/summary; optional for "
                             "status)")
    parser.add_argument("--spool", default=None,
                        help="spool directory (default: "
                             "REPRO_SERVE_SPOOL or <cache-dir>/service)")
    # server flags
    parser.add_argument("--drain", action="store_true",
                        help="start: exit once the queue is empty "
                             "instead of idling for more submissions")
    parser.add_argument("--poll", type=float, default=0.5,
                        help="start: idle poll interval in seconds")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="start: give up idling after this long")
    # submit flags (a fig6_9 campaign plan, like the campaign driver)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--mttf", type=float, default=1.0)
    parser.add_argument("--apps", "--workloads", dest="apps", nargs="+",
                        default=None)
    parser.add_argument("--cores", type=int, nargs="+", default=[8, 16])
    parser.add_argument("--schemes", nargs="+",
                        default=["global", "rebound", "rebound@4"])
    parser.add_argument("--scale", type=int, default=40)
    parser.add_argument("--intervals", type=float, default=3.0)
    parser.add_argument("--quick", action="store_true",
                        help="submit: tiny smoke-test campaign "
                             "(4 cores, scale 300, 1.5 intervals)")
    parser.add_argument("--priority", type=int, default=0,
                        help="submit: higher runs first")
    parser.add_argument("--label", default="",
                        help="submit: free-form job label")
    parser.add_argument("--timeout", type=float, default=None,
                        help="drain: give up after this many seconds")
    _add_engine_flags(parser)
    args = parser.parse_args(argv)
    spool = args.spool if args.spool is not None else default_spool_dir()

    if args.action == "start":
        engine, _ = _build_engine_and_runner(args)
        service = CampaignService(spool_dir=spool, engine=engine)
        replayed = service.replay()
        print(f"[serve] spool {service.spool}: serving "
              f"(jobs={engine.jobs}, {replayed} journaled result(s) "
              f"replayed)", flush=True)
        processed = service.serve(poll=args.poll, drain=args.drain,
                                  max_seconds=args.max_seconds)
        print(f"[serve] exiting: {processed} job(s) executed")
        return 0

    # The summary loads landed results from the result cache, so it
    # takes the same engine flags as ``start``; every other client
    # operation only touches the spool and needs no engine.
    engine = (_build_engine_and_runner(args)[0]
              if args.action == "summary" else None)
    service = CampaignService(spool_dir=spool, engine=engine)
    if args.action == "submit":
        if args.quick:
            args.cores = [4]
            args.scale = 300
            args.intervals = 1.5
        variants = tuple(parse_variant(token)
                         for token in args.schemes)
        apps = ([resolve_workload(token) for token in args.apps]
                if args.apps is not None else None)
        runner = Runner(scale=args.scale, intervals=args.intervals)
        keys = plan_fig6_9(runner, apps, tuple(args.cores), variants,
                           args.seeds, args.seed, args.mttf)
        job_id = service.submit(keys, priority=args.priority,
                                label=args.label or "campaign")
        print(f"[serve] spool {service.spool}: job {job_id} "
              f"({len(set(keys))} runs, priority {args.priority})")
        print(job_id)
        return 0
    if args.action == "status":
        statuses = ([service.status(args.job)]
                    if args.job else service.statuses())
        if not statuses or statuses[0] is None:
            print(f"[serve] unknown job {args.job}", file=sys.stderr)
            return 1
        rows = [[s["job"], s.get("label", ""), s.get("state", "?"),
                 s.get("total", 0), s.get("landed", 0),
                 s.get("computed", 0), s.get("replayed", 0),
                 s.get("failed", 0), s.get("pending", 0)]
                for s in statuses]
        print(format_table(
            ["job", "label", "state", "total", "landed", "computed",
             "replayed", "failed", "pending"],
            rows, title=f"Spool {service.spool}"))
        return 0
    if args.action == "cancel":
        if not args.job:
            parser.error("cancel needs a job id")
        if not service.cancel(args.job):
            print(f"[serve] unknown job {args.job}", file=sys.stderr)
            return 1
        print(f"[serve] cancel requested for {args.job}")
        return 0
    if args.action == "drain":
        jobs = [args.job] if args.job else None
        if service.wait(jobs, timeout=args.timeout):
            print("[serve] drained: all jobs terminal")
            return 0
        print("[serve] drain timed out", file=sys.stderr)
        return 1
    if args.action == "summary":
        if not args.job:
            parser.error("summary needs a job id")
        summary = service.summarize(args.job)
        if summary.n_runs == 0:
            print(f"[serve] no landed results for {args.job}",
                  file=sys.stderr)
            return 1
        p95 = summary.recovery_latency_percentile(95)
        print(format_table(
            ["runs", "faults inj", "delivered", "rollbacks/run",
             "IREC (lines)", "recovery (cyc)", "p95 recovery",
             "availability", "eff avail"],
            [[summary.n_runs, summary.injected_faults,
              summary.delivered_faults,
              f"{summary.mean_rollbacks_per_run:.2f}",
              f"{summary.mean_irec_size:.1f}",
              f"{summary.mean_recovery_latency:,.0f}",
              "-" if p95 != p95 else f"{p95:,.0f}",
              f"{100 * summary.mean_availability:.2f}%",
              f"{100 * summary.mean_effective_availability:.2f}%"]],
            title=f"Journal summary for {args.job}"))
        return 0
    # stop
    service.request_stop()
    print("[serve] stop requested")
    return 0


def lint_main(argv: list[str]) -> int:
    """``python -m repro.harness lint``: the reprolint analysis pass."""
    # Imported here, not at module top: the analysis layer is pure
    # tooling and must never ride into the engine's pool workers.
    from repro.analysis import (
        LintError,
        Project,
        registered_rules,
        run_lint,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness lint",
        description="Contract-enforcing static analysis: determinism "
                    "(RL002), fork-safety (RL001), fingerprint "
                    "coverage (RL003) and cache-identity hygiene "
                    "(RL004) over the repro tree.  Exits 1 on any "
                    "unsuppressed finding.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--rules", nargs="+", default=None,
                        metavar="CODE",
                        help="rule codes to run (space- or comma-"
                             "separated; default: all registered)")
    parser.add_argument("--root", default=None,
                        help="package directory to lint (default: the "
                             "installed repro package, with the "
                             "fingerprint file set taken from the "
                             "engine)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0
    codes = None
    if args.rules is not None:
        codes = [code for token in args.rules
                 for code in token.split(",") if code]
    project = None
    if args.root is not None:
        from pathlib import Path
        root = Path(args.root)
        project = Project(root=root, package=root.name)
    try:
        report = run_lint(project=project, rules=codes)
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(report.render_json() if args.json else report.render())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # pragma: no cover - exercised via the console
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro.harness")
    parser.add_argument("experiments", nargs="*",
                        default=list(ALL_EXPERIMENTS),
                        help=f"subset of {sorted(ALL_EXPERIMENTS)}")
    parser.add_argument("--cores-splash", type=int, default=64)
    parser.add_argument("--cores-parsec", type=int, default=24)
    parser.add_argument("--scale", type=int, default=40)
    parser.add_argument("--intervals", type=float, default=3.0)
    parser.add_argument("--quick", action="store_true")
    _add_engine_flags(parser)
    parser.add_argument("--profile", action="store_true",
                        help="print per-run wall-clock table at the end")
    args = parser.parse_args(argv)
    if args.quick:
        args.cores_splash = 8
        args.cores_parsec = 8
        args.intervals = 2.0
        args.scale = 100
    engine, runner = _build_engine_and_runner(args)
    kwargs_by_experiment = {
        "fig6_1": {"n_cores": args.cores_parsec},
        "fig6_2": {"sizes": (min(32, args.cores_splash),
                             args.cores_splash)},
        "fig6_3": {"n_cores": args.cores_splash},
        "fig6_4": {"n_cores": args.cores_splash},
        "fig6_5": {"splash_cores": args.cores_splash,
                   "parsec_cores": args.cores_parsec},
        "fig6_6": {"sizes": tuple(sorted({max(4, args.cores_splash // 4),
                                          max(4, args.cores_splash // 2),
                                          args.cores_splash}))},
        "fig6_7": {"n_cores": args.cores_splash},
        "fig6_8": {"n_cores": args.cores_splash},
        "fig6_9": {"sizes": (max(4, args.cores_splash // 8),
                             max(8, args.cores_splash // 4))},
        "fig_l_sensitivity": {"n_cores": max(4, args.cores_splash // 8)},
        "table6_1": {"splash_cores": args.cores_splash,
                     "parsec_cores": args.cores_parsec},
    }
    if args.quick:
        subset = {"apps": SPLASH2[:3]}
        for name in ("fig6_2", "fig6_3", "fig6_6", "fig6_8"):
            kwargs_by_experiment[name].update(subset)
        kwargs_by_experiment["fig6_1"]["apps"] = PARSEC_APACHE[:2]
        kwargs_by_experiment["fig6_5"]["apps"] = ALL_APPS[:3]
        kwargs_by_experiment["fig6_7"]["apps"] = ["blackscholes"]
        kwargs_by_experiment["fig6_9"].update(
            {"apps": ["blackscholes"], "sizes": (4, 8), "n_seeds": 2})
        kwargs_by_experiment["fig_l_sensitivity"].update(
            {"apps": ["blackscholes"], "n_cores": 4})
        kwargs_by_experiment["table6_1"]["apps"] = ALL_APPS[:4]
    # Plan every requested figure up front so runs shared across figures
    # execute exactly once, in one (possibly parallel) engine batch; the
    # fig6_* driver kwargs ("suite" etc.) planners don't model are not in
    # kwargs_by_experiment, so plans and drivers stay in lockstep.
    plan = []
    for name in args.experiments:
        plan.extend(plan_experiment(name, runner,
                                    **kwargs_by_experiment.get(name, {})))
    unique = len(dict.fromkeys(plan))
    print(f"[plan] {len(args.experiments)} experiment(s): "
          f"{len(plan)} planned runs, {unique} unique, "
          f"jobs={engine.jobs}, cache="
          f"{'off' if not engine.use_disk_cache else engine.cache_dir}")
    start = time.time()
    runner.prefetch(plan)
    print(f"[plan] executed in {time.time() - start:.1f}s "
          f"({len(engine.profile)} computed, {engine.disk_hits} from "
          f"disk cache)")
    for name in args.experiments:
        start = time.time()
        result = run_experiment(name, runner,
                                **kwargs_by_experiment.get(name, {}))
        print()
        print(result.render())
        print(f"[{name} took {time.time() - start:.1f}s]")
        print()
    if args.profile:
        rows = engine.profile_rows()
        total = sum(engine.profile.values())
        print(format_table(
            ["app", "cores", "scheme", "io_every", "fault_at", "cluster",
             "overrides", "batch", "wall s"],
            rows, title=f"Per-run wall clock ({len(rows)} computed runs, "
                        f"{total:.1f}s total, {engine.disk_hits} disk-"
                        f"cache hits)"))
        counters = engine.store_counters()
        print(f"[workload store] "
              + ", ".join(f"{name}={count}"
                          for name, count in counters.items()))
        mem = engine.memsys_counters()
        accesses = mem["mem_accesses"]
        l1_total = mem["l1_hits"] + mem["l1_misses"]
        l2_total = mem["l2_hits"] + mem["l2_misses"]
        fast = mem["fastpath_loads"] + mem["fastpath_stores"]
        print(f"[memsys] "
              f"fastpath_hit_rate={fast / accesses:.3f}, "
              f"l1_hit_rate={mem['l1_hits'] / max(1, l1_total):.3f}, "
              f"l2_hit_rate={mem['l2_hits'] / max(1, l2_total):.3f}, "
              f"invalidations={mem['invalidations']}, "
              f"epoch_bumps={mem['fastpath_epoch_bumps']}, "
              f"accesses={accesses}"
              if accesses else "[memsys] no completed runs in-process")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
