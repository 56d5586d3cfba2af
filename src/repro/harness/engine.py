"""Experiment execution engine: planned, parallel, disk-cached runs.

Every figure of the evaluation chapter is a set of independent
simulations identified by a :class:`RunKey`.  The engine lets the
experiment drivers *plan* those key sets up front, deduplicates them
(many figures share runs, e.g. an app's no-checkpointing baseline),
executes the unique missing runs concurrently on a
``ProcessPoolExecutor``, and persists every completed :class:`SimStats`
to an on-disk cache so later sessions and CI replay results instead of
recomputing them.

Cache invalidation: each entry's file name hashes the :class:`RunKey`
together with a *code fingerprint* — a SHA-256 over every ``*.py`` and
``*.c`` file of the ``repro`` package, the interpreter's (major, minor)
version and the pickle protocol — so any change to the simulator (or a
cache dir shared across Python versions) silently invalidates all
previous results.  Stale files are never read; delete the cache
directory to reclaim the space.

Workload store: generated workloads are shared across runs through a
content-addressed store under ``<cache_dir>/workloads`` (see
:mod:`repro.harness.workload_store`).  Each workload that two or more
missing runs share is built once before they run — as one pool job per
unbuilt workload on the parallel path (the builds run side by side and
the runs go out once all of them finished), in the engine's own
process on the serial path — and the runs mmap the entry and execute
over read-only views of the compiled-trace IR instead of re-running
``SyntheticWorkload`` per run.  ``--no-cache`` (``REPRO_NO_CACHE=1``)
disables it along with the result cache.

One run loop: :meth:`ExperimentEngine.run_stream` is the only
execution path.  It replays what the memo and the disk cache hold,
plans the rest as replica batches, and runs them through one task
runner (:func:`_run_task`) — in-process when one worker (or one run) is
enough, otherwise inside the workers of the pool dispatch below —
landing each result through one method as it completes and collecting
every failure by :class:`RunKey` instead of stopping at the first.
:meth:`~ExperimentEngine.run_many` is ``run_stream`` plus one
``RuntimeError`` naming every failing run.

Pool dispatch: every task is one pool future, all submitted at once in
plan order; futures that have not started stay cancellable.  A task is
a whole replica batch, so the per-future cost (pickling its keys, a
result round-trip, an executor wakeup) is small beside it.  Workers
write completed results into the disk cache themselves, and each
worker's workload store keeps an LRU of parsed workloads, so a worker
that runs several tasks of one workload maps and parses it once.

Replica batches: every task is a batch of the missing keys that agree
on everything except their faults and their scheme's prefix family —
(workload, cores, prefix family, intervals, seed, scale, io_every,
cluster, overrides) — and runs through the replica-batch executor
(:mod:`repro.sim.vector`): one fault-free leader machine walks the
shared workload once, each replica of the leader's scheme forks off it
at its first fault-detection time, and each replica of another scheme
of the family (NONE and Global_DWB beside Global, Rebound beside
Rebound_NoDWB) forks off at the leader's first scheme decision or at
its own first fault, whichever comes first, producing bit-identical
per-replica ``SimStats``.  A lone key is a batch of one; Fig 6.3's five
schemes per app run as two batches.
Results are memoized and disk-cached *per key*, so the cache format,
the invariant harness and the campaign summaries see no difference.

Knobs (CLI flags on ``python -m repro.harness`` map onto the same
settings)::

    REPRO_JOBS        worker processes (default: os.cpu_count())
    REPRO_CACHE_DIR   result cache location (default: benchmarks/.cache)
    REPRO_NO_CACHE    set to 1 to bypass the disk cache entirely

(``REPRO_SERVE_SPOOL``, the campaign service's spool location, is read
by :mod:`repro.harness.service`.)
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.core.factory import fault_free_invariant_overrides, prefix_family
from repro.harness.scenario import EMPTY_OVERRIDES, Overrides
from repro.harness.workload_store import WorkloadStore
from repro.params import MachineConfig, Scheme
from repro.sim import SimStats
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.workloads import (
    WorkloadSpec,
    get_workload,
    inject_output_io,
    workload_fingerprint,
    workload_name,
)
from repro.workloads.registry import is_builtin_workload

#: Bump when the pickled payload layout changes incompatibly.
#: 2: useful-work accounting — SimStats/CoreStats grew the cycle-bucket
#:    counters (ckpt_backoff, stall_overhang, rollback_waste), so
#:    entries pickled before them would deserialize without the fields
#:    the campaign tables now read.
#: 3: memory-system counters — SimStats grew the memsys counters
#:    (l1/l2 hits+misses, fastpath loads/stores/epochs, invalidations,
#:    mem_accesses) that ``--profile`` and the bench memsys section read.
CACHE_FORMAT = 3

_PACKAGE_DIR = Path(__file__).resolve().parents[1]
_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True, repr=False)
class RunKey:
    """Identity of one simulation (also the memoization/cache key).

    ``overrides`` makes *any* :class:`MachineConfig` axis sweepable:
    a frozen, canonically-ordered mapping of config-field overrides
    (see :mod:`repro.harness.scenario`) that ``execute_run`` applies on
    top of ``MachineConfig.scaled``.  Field names are validated here at
    construction — a malformed key fails at plan time, never inside a
    pool worker.  Keys without overrides repr (and therefore cache)
    byte-identically to the pre-scenario layout.

    ``app`` is a built-in workload name (plain ``str``, the pre-registry
    cache identity) or the picklable
    :class:`~repro.workloads.registry.WorkloadTag` of an out-of-tree
    generator registered via ``register_workload``.
    """

    app: str  # or WorkloadTag (duck-typed via its ``value`` attribute)
    n_cores: int
    scheme: Scheme
    intervals: float
    seed: int
    scale: int
    io_every: Optional[int] = None       # output-I/O injection period
    fault_at: Optional[float] = None     # compat shim: one core-0 fault
    fault_plan: Optional[FaultPlan] = None   # seeded multi-fault campaign
    cluster: int = 1                     # Dep-register cluster size (Ch. 8)
    overrides: Overrides = EMPTY_OVERRIDES   # MachineConfig field overrides

    def __post_init__(self):
        if self.fault_plan is not None and self.fault_at is not None:
            raise ValueError(
                "RunKey.fault_at and RunKey.fault_plan are mutually "
                "exclusive; encode the single fault in the plan")
        if not isinstance(self.overrides, Overrides):
            # Accept plain mappings (and None) for convenience; the
            # Overrides constructor validates the field names.
            object.__setattr__(self, "overrides",
                               Overrides(self.overrides or {}))

    def __repr__(self) -> str:
        # Matches the auto-generated dataclass repr of the pre-override
        # layout exactly, appending ``overrides`` only when present: the
        # repr is the key-layout half of the disk-cache identity (the
        # other half, the source fingerprint, already invalidates
        # entries on any code change), so the key layout itself must
        # never become a second, accidental invalidation axis —
        # tests/test_scenario.py pins both layouts as golden values so
        # future layout changes are intentional.
        text = (f"RunKey(app={self.app!r}, n_cores={self.n_cores!r}, "
                f"scheme={self.scheme!r}, intervals={self.intervals!r}, "
                f"seed={self.seed!r}, scale={self.scale!r}, "
                f"io_every={self.io_every!r}, fault_at={self.fault_at!r}, "
                f"fault_plan={self.fault_plan!r}, cluster={self.cluster!r}")
        if self.overrides:
            text += f", overrides={self.overrides!r}"
        return text + ")"

    def fault_list(self) -> Optional[list[tuple[float, int]]]:
        """The faults this key injects (``fault_at`` is the legacy
        single-fault shim; a ``fault_plan`` supersedes it — the two are
        mutually exclusive, enforced at construction)."""
        if self.fault_plan is not None:
            return list(self.fault_plan.faults)
        if self.fault_at is not None:
            return [(self.fault_at, 0)]
        return None


def _fault_note(key: RunKey) -> str:
    """`` faults=N@T`` for a key that injects N faults, the first
    detected at cycle T (empty for a fault-free key): the landing line
    of a fault run must not read like its fault-free leader's."""
    from repro.sim.vector import _first_detect

    faults = key.fault_list()
    if not faults:
        return ""
    detect = _first_detect(faults, resolve_config(key).detection_latency)
    return f" faults={len(faults)}@{detect:.0f}"


def resolve_config(key: RunKey) -> MachineConfig:
    """The fully resolved :class:`MachineConfig` of a run (scaled base
    plus the key's overrides) — the workload-store address depends on
    it, so planning and execution share one derivation."""
    config = MachineConfig.scaled(n_cores=key.n_cores, scheme=key.scheme,
                                  scale=key.scale,
                                  dep_cluster_size=key.cluster)
    return key.overrides.apply(config)


def execute_run(key: RunKey,
                store: Optional[WorkloadStore] = None) -> SimStats:
    """Build and run the simulation ``key`` describes (pure function).

    The scalar reference: the engine runs every task through
    :func:`execute_batch`, whose results the parity suites hold equal
    to this function's.

    With a ``store``, the base workload comes from the content-addressed
    workload store (deserialized compiled-trace IR) instead of being
    regenerated; the result is identical either way — the store is
    purely a build cache.
    """
    config = resolve_config(key)
    return Machine(config, _load_workload(key, config, store),
                   faults=key.fault_list()).run()


def _load_workload(key: RunKey, config: MachineConfig,
                   store: Optional[WorkloadStore]) -> WorkloadSpec:
    """``key``'s workload under ``config``: from the ``store`` when
    given, else generated, then io-injected when the key asks for it."""
    if store is not None:
        workload = store.get_or_build(key.app, key.n_cores, config,
                                      key.intervals, key.seed)
    else:
        workload = get_workload(key.app, key.n_cores, config,
                                intervals=key.intervals, seed=key.seed)
    if key.io_every is not None:
        workload = inject_output_io(spec=workload, pid=0,
                                    every_instructions=key.io_every)
    return workload


#: The task counter :func:`execute_batch` reports ``variant_forks`` under.
VARIANT_FORKS = "variant_forks"


def execute_batch(keys: list[RunKey],
                  store: Optional[WorkloadStore] = None,
                  counters: Optional[Counter] = None) -> list[SimStats]:
    """Run a same-workload replica group (a lone key is a group of one)
    through the vector executor — the engine's only task executor.

    ``keys`` must agree on every :class:`RunKey` field except their
    faults — and, for built-in workloads, except overrides of config
    fields the scheme declared fault-free invariant
    (:func:`~repro.core.factory.fault_free_invariant_overrides`) and
    the scheme within its prefix family
    (:func:`~repro.core.factory.prefix_family`);
    ``ExperimentEngine._batch_key`` groups them exactly that way.  The
    shared workload is built (and io-injected) once, each key's fault
    list becomes one replica of the batch, and keys whose overrides or
    scheme differ ride the same leader with their own resolved config
    (``replica_configs``) — a detection-latency sweep under Global is
    served from one trace pass, and so is Fig 6.3's NONE / Global /
    Global_DWB up to the first checkpoint.  Returns the per-key
    stats in input order; the machine loops' counters
    (:meth:`~repro.sim.machine.Machine.counters`) and the batch's
    ``variant_forks`` (under :data:`VARIANT_FORKS`) are added into
    ``counters`` when one is given.
    """
    from repro.sim.vector import run_replica_batch

    config = resolve_config(keys[0])
    workload = _load_workload(keys[0], config, store)
    fault_lists = [key.fault_list() or [] for key in keys]
    same = [(key.overrides, key.scheme) == (keys[0].overrides,
                                            keys[0].scheme) for key in keys]
    replica_configs = None if all(same) else [
        config if alike else resolve_config(key)
        for alike, key in zip(same, keys)]
    result = run_replica_batch(config, workload, fault_lists,
                               replica_configs=replica_configs)
    if counters is not None:
        counters.update(result.report.counters)
        counters[VARIANT_FORKS] += result.report.variant_forks
    return result.stats


#: One store instance per root per worker process: pool tasks arrive as
#: plain (key, root) calls, and a fresh store per task would reset the
#: ``disabled`` write-failure latch — an unwritable store must warn and
#: fall back once per process, not once per run.
_WORKER_STORES: dict[str, WorkloadStore] = {}


def _worker_store(store_root: Optional[str]) -> Optional[WorkloadStore]:
    if store_root is None:
        return None
    store = _WORKER_STORES.get(store_root)
    if store is None:
        store = _WORKER_STORES[store_root] = WorkloadStore(store_root)
    return store


def _cache_path_for(cache_dir: Path, key: RunKey) -> Path:
    """Entry path for ``key`` under ``cache_dir`` (workers and the
    engine derive the identical address — the cache layout has exactly
    one definition)."""
    ident = f"{code_fingerprint()}|{key!r}"
    # Out-of-tree generators live outside src/repro, so the code
    # fingerprint cannot see their changes: their registration
    # fingerprint joins the result-cache identity instead (bump it
    # and old SimStats are never served).  Built-in idents are
    # unchanged — profile changes already invalidate through the
    # code fingerprint, and the pre-registry cache layout is pinned
    # by golden tests.
    if not is_builtin_workload(key.app):
        ident += f"|workload:{workload_fingerprint(key.app)}"
    digest = hashlib.sha256(ident.encode()).hexdigest()
    return Path(cache_dir) / f"{digest}.pkl"


def _key_disk_cacheable(key: RunKey) -> bool:
    """A registered generator without a fingerprint has *no*
    invalidation signal at all (its source is invisible to the code
    fingerprint), so its results must never be served from disk —
    the registry promises such workloads are rebuilt per run."""
    return is_builtin_workload(key.app) \
        or workload_fingerprint(key.app) is not None


def _write_cache_entry(cache_dir: Path, key: RunKey,
                       stats: SimStats) -> Optional[str]:
    """Persist one result (atomic replace).  Returns None on success —
    including the nothing-to-write case — or the error text, so the
    engine can warn once per session about an unwritable cache."""
    if not _key_disk_cacheable(key):
        return None
    path = _cache_path_for(cache_dir, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(stats, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic vs. concurrent CI shards
    except OSError as exc:
        return str(exc)
    return None


def _portable_exc(exc: BaseException) -> BaseException:
    """Exceptions cross the pool boundary pickled; one that cannot
    round-trip (custom ``__init__`` signature, handle-holding payload)
    would fail to come back as its task's outcome, so it degrades to a
    RuntimeError carrying the repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(repr(exc))
    return exc


def _run_task(task: list[RunKey], store: Optional[WorkloadStore],
              cache_dir: Optional[str]) -> tuple:
    """The engine's one task runner: run one planned replica batch, in
    the pool and on the serial path alike.

    The outcome is ``("ok", stats_list, seconds, cached, counters)`` —
    ``cached`` says every result already landed in the disk cache,
    ``counters`` are the task's loop counters — or ``("err", exc)``.
    ``KeyboardInterrupt`` is not a task failure: it propagates, so an
    interrupted worker stops.
    """
    start = time.perf_counter()
    counters: Counter = Counter()
    try:
        stats_list = execute_batch(task, store, counters)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - reported per task
        return ("err", _portable_exc(exc))
    seconds = time.perf_counter() - start
    cached = cache_dir is not None and all(
        _write_cache_entry(cache_dir, key, stats) is None
        for key, stats in zip(task, stats_list))
    return ("ok", stats_list, seconds, cached, counters)


def _run_pooled(task: list[RunKey], store_root: Optional[str] = None,
                cache_dir: Optional[str] = None
                ) -> tuple[tuple, Optional[dict]]:
    """Worker entry point: :func:`_run_task` over this process's store.

    The second return value is this call's workload-store counter
    deltas, so the engine can aggregate store behaviour across worker
    processes.
    """
    store = _worker_store(store_root)
    before = store.counters() if store is not None else None
    outcome = _run_task(task, store, cache_dir)
    deltas = None
    if store is not None:
        deltas = {name: count - before[name]
                  for name, count in store.counters().items()}
    return outcome, deltas


def _build_workload(params: tuple, store_root: str) -> dict:
    """Worker entry point: build one shared workload into the store.

    ``params`` are :meth:`WorkloadStore.ensure`'s arguments.  Returns
    the store-counter deltas, like :func:`_run_pooled`, so the engine's
    ``builds`` count stays exact across processes.  A builder that
    raises is left to fail inside each of its own runs, where the error
    report carries the full :class:`RunKey` and healthy siblings still
    complete.
    """
    store = _worker_store(store_root)
    before = store.counters()
    try:
        store.ensure(*params)
    except Exception:  # noqa: BLE001 - deferred to the runs themselves
        pass
    return {name: count - before[name]
            for name, count in store.counters().items()}


_FINGERPRINT: Optional[str] = None


def fingerprint_paths() -> list[Path]:
    """The exact file set :func:`code_fingerprint` hashes, sorted.

    Exposed separately so the static analyzer (``reprolint`` RL003) can
    audit the cache contract against the *actual* hashed set: every
    module reachable from ``execute_run``/``run_replica_batch`` must
    appear here, or editing it would keep serving stale cache entries.
    The compiled memory system's C source is part of the set too (not
    the build directories under ``__pycache__``).
    """
    return sorted(path for pattern in ("*.py", "*.c")
                  for path in _PACKAGE_DIR.rglob(pattern)
                  if "__pycache__" not in path.parts)


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (cache invalidation).

    The interpreter's (major, minor) version and the pickle protocol are
    mixed in as well: cache directories shared across Python versions
    (CI's actions/cache, a laptop with several venvs) must never serve
    an entry pickled by a different interpreter line.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256(
            f"format:{CACHE_FORMAT}"
            f"|python:{sys.version_info[0]}.{sys.version_info[1]}"
            f"|pickle:{pickle.HIGHEST_PROTOCOL}".encode())
        for path in fingerprint_paths():
            digest.update(str(path.relative_to(_PACKAGE_DIR)).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _env_flag(name: str, text: str) -> bool:
    """Parse an on/off environment variable, rejecting garbage with a
    one-line error that names the variable (a typo like
    ``REPRO_NO_CACHE=fasle`` must not silently pick either behaviour)."""
    lower = text.strip().lower()
    if lower in ("1", "on", "true", "yes"):
        return True
    if lower in ("0", "off", "false", "no"):
        return False
    raise ValueError(f"{name} must be one of 1/0/on/off/true/false/"
                     f"yes/no, got {text!r}")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` or the machine's CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer worker "
                             f"count, got {env!r}") from None
        return max(1, jobs)
    return os.cpu_count() or 1


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or ``benchmarks/.cache`` under the repo root.

    The repo-root derivation only holds for a src-layout checkout; for
    an installed package (no ``benchmarks/`` next to ``src/``) fall
    back to a dot-directory under the working directory instead of
    writing into the Python environment.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    if (_REPO_ROOT / "benchmarks").is_dir():
        return _REPO_ROOT / "benchmarks" / ".cache"
    return Path.cwd() / ".repro-cache"


@dataclass
class StreamReport:
    """Result of :meth:`ExperimentEngine.run_stream`.

    Unlike :meth:`~ExperimentEngine.run_many`, streaming execution
    never raises on per-run failures — the campaign service must keep
    serving its other jobs when one run's workload builder blows up —
    so the caller reads the partition: ``results`` landed (streamed
    through ``on_land`` as they completed), ``failures`` raised inside
    their runs, ``pending`` were dropped by cancellation.

    ``failures`` holds one ``(key, exc)`` entry per *run* — a failed
    replica batch of N keys contributes N entries, so failure counts
    always match run counts.  ``pending`` keys never started; they are
    not failures — nothing about them is known.
    """

    results: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    cancelled: bool = False
    replayed: int = 0     # served from the memo or the disk cache
    computed: int = 0     # executed this call

    @property
    def landed(self) -> int:
        return len(self.results)


class ExperimentEngine:
    """Plans, deduplicates, parallelizes and caches simulation runs.

    The in-memory memo guarantees object identity within a process (two
    requests for the same key return the *same* ``SimStats``); the disk
    cache makes repeated sessions near-instant.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 use_disk_cache: Optional[bool] = None,
                 verbose: bool = False,
                 vector: bool = True):
        # ``vector`` survives only for callers that still pass
        # ``vector=True``: replica batching cannot be switched off.
        if vector is not True:
            raise ValueError(
                f"vector={vector!r}: replica batching is the engine's "
                f"only execution plan; vector=True is the only value")
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        if use_disk_cache is None:
            env = os.environ.get("REPRO_NO_CACHE")
            use_disk_cache = not (env is not None and env != ""
                                  and _env_flag("REPRO_NO_CACHE", env))
        self.use_disk_cache = use_disk_cache
        # The workload store lives under the result cache dir and obeys
        # the same opt-out: ``--no-cache`` means no disk I/O at all.
        self.workload_store: Optional[WorkloadStore] = (
            WorkloadStore(self.cache_dir / "workloads")
            if use_disk_cache else None)
        self.verbose = verbose
        self.memo: dict[RunKey, SimStats] = {}
        #: Wall-clock seconds per key *computed* this session (not cached).
        self.profile: dict[RunKey, float] = {}
        #: Replica-batch width each computed key ran at (1 = a lone key).
        self.batch_width: dict[RunKey, int] = {}
        #: Machine-loop counters summed over every task computed this
        #: session (:meth:`~repro.sim.machine.Machine.counters`).
        self.loop_counters: Counter = Counter()
        #: Forks taken at a leader's first scheme return, summed over
        #: every task computed this session (``BatchReport``).
        self.variant_forks = 0
        self.disk_hits = 0
        self._store_warned = False
        #: Workload-store counter deltas shipped back by pool workers
        #: (:meth:`store_counters` folds the parent store on top).
        self._worker_counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # disk cache
    # ------------------------------------------------------------------
    def _cache_path(self, key: RunKey) -> Path:
        return _cache_path_for(self.cache_dir, key)

    def _disk_cacheable(self, key: RunKey) -> bool:
        return self.use_disk_cache and _key_disk_cacheable(key)

    def _load_cached(self, key: RunKey) -> Optional[SimStats]:
        if not self._disk_cacheable(key):
            return None
        path = self._cache_path(key)
        try:
            with path.open("rb") as fh:
                stats = pickle.load(fh)
        except Exception:
            # Best-effort cache: any unreadable/corrupt entry (truncated
            # write, garbled restore, unpicklable payload) is a miss,
            # never a crash.
            return None
        if not isinstance(stats, SimStats):
            return None
        self.disk_hits += 1
        return stats

    def _store_cached(self, key: RunKey, stats: SimStats) -> None:
        if not self._disk_cacheable(key):
            return
        error = _write_cache_entry(self.cache_dir, key, stats)
        if error is not None:
            # Best-effort cache, but say so once: a typo'd --cache-dir
            # otherwise looks identical to a working one.
            if not self._store_warned:
                self._store_warned = True
                print(f"  [engine] warning: result cache disabled "
                      f"({self.cache_dir}: {error})", flush=True)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, key: RunKey) -> SimStats:
        """Run (or recall) one simulation."""
        return self.run_many([key])[key]

    def prefetch(self, keys: Iterable[RunKey]) -> None:
        """Ensure every ``key`` is available (the planning entry point)."""
        self.run_many(keys)

    def run_many(self, keys: Iterable[RunKey]) -> dict[RunKey, SimStats]:
        """Deduplicate ``keys``, execute the missing ones, return all.

        :meth:`run_stream` does the work, so every run executes even
        when an earlier one fails; afterwards one ``RuntimeError``
        names every failing run (chained from the first failure).
        """
        unique = list(dict.fromkeys(keys))
        report = self.run_stream(unique)
        if report.failures:
            lines = [f"  {self.describe_failure(key, exc)}"
                     for key, exc in report.failures]
            raise RuntimeError(
                f"simulation failed for {len(report.failures)} of "
                f"{len(unique) - report.replayed} run(s):\n"
                + "\n".join(lines)) from report.failures[0][1]
        return {key: self.memo[key] for key in unique}

    def run_stream(self, keys: Iterable[RunKey],
                   on_land: Optional[Callable] = None,
                   should_cancel: Optional[Callable[[], bool]] = None
                   ) -> StreamReport:
        """Streaming execution: results land incrementally, failures
        are collected per key instead of raised, and cancellation is
        cooperative — the campaign service's execution primitive.

        ``on_land(key, stats, source, seconds)`` fires for *every* key
        as it becomes available: ``source`` is ``"memo"`` / ``"disk"``
        for replayed results (zero recomputation) and ``"run"`` for
        ones computed this call.  ``should_cancel`` is polled between
        landings; once it returns True no further task starts,
        in-flight tasks drain (and land), and the keys never started
        come back in ``pending``.  Serial and pool execution share the
        task runner (:func:`_run_task`) and the landing (:meth:`_land`).
        """
        report = StreamReport()
        unique = list(dict.fromkeys(keys))
        missing = []
        for key in unique:
            stats = self.memo.get(key)
            source = "memo"
            if stats is None:
                stats = self._load_cached(key)
                source = "disk"
                if stats is not None:
                    self.memo[key] = stats
            if stats is None:
                missing.append(key)
                continue
            report.results[key] = stats
            report.replayed += 1
            if on_land is not None:
                on_land(key, stats, source, 0.0)
        if should_cancel is not None and should_cancel():
            report.pending.extend(missing)
            report.cancelled = True
            return report
        if not missing:
            return report
        tasks = self._plan_tasks(missing)
        if len(missing) > 1 and self.jobs > 1:
            self._dispatch(tasks, report, on_land, should_cancel)
            return report
        self._prepare_workloads(missing)
        cache_root = str(self.cache_dir) if self.use_disk_cache else None
        for index, task in enumerate(tasks):
            if should_cancel is not None and should_cancel():
                report.cancelled = True
                report.pending.extend(key for rest in tasks[index:]
                                      for key in rest)
                break
            self._land(task, _run_task(task, self.workload_store,
                                       cache_root), report, on_land)
        return report

    def describe_failure(self, key: RunKey, exc: BaseException) -> str:
        """One human line per failed run (the service's status files
        and the batch engine's error report share the wording)."""
        return f"{self._describe(key)}: {exc!r}"

    @staticmethod
    def _batch_key(key: RunKey) -> tuple:
        """Replica-group identity: everything but the faults and the
        scheme's prefix family.  Keys that agree here run the *same*
        machine up to their first fault-detection point or the first
        time scheme code runs, whichever comes first, which is exactly
        what the vector executor shares.

        Schemes group by :func:`~repro.core.factory.prefix_family`:
        NONE, Global and Global_DWB share a leader, and so do
        Rebound_NoDWB and Rebound; the leader's first checkpoint
        decision is where they part.

        Overrides of config fields the scheme declared **fault-free
        invariant** (``FAULT_FREE_INVARIANT_OVERRIDES``, e.g.
        ``detection_latency`` under Global/NONE) cannot perturb that
        shared prefix either, so they are stripped from the identity
        and the group members carry their own configs through
        ``execute_batch`` — a detection-latency sweep batches across
        all its L values.  Only built-in workloads widen: a registered
        generator receives the full resolved config, so its *traces*
        could depend on any override or on the scheme.
        """
        overrides, scheme = key.overrides, key.scheme
        if is_builtin_workload(key.app):
            scheme = prefix_family(scheme)
            invariant = fault_free_invariant_overrides(key.scheme)
            if overrides and invariant:
                kept = {name: value for name, value in overrides.items()
                        if name not in invariant}
                if len(kept) != len(overrides):
                    overrides = Overrides(kept)
        return (key.app, key.n_cores, scheme, key.intervals, key.seed,
                key.scale, key.io_every, key.cluster, overrides)

    def _plan_tasks(self, missing: list[RunKey]) -> list[list[RunKey]]:
        """The execution plan: one replica batch per :meth:`_batch_key`
        (a lone key is a batch of one), in first-seen order except that
        the batches of one workload are next to each other.

        Batches of one workload cost about the same, so the pool's
        workers take them side by side: in plan order a campaign that
        lists its variants outermost would start its longest batch
        last (the ``campaign_sparse`` benchmark ran ~10% longer at
        ``-j 2``)."""
        def workload(key: RunKey) -> tuple:
            return (key.app, key.n_cores, key.intervals, key.seed,
                    key.scale)

        groups: dict[tuple, list[RunKey]] = {}
        first_seen: dict[tuple, int] = {}
        for key in missing:
            groups.setdefault(self._batch_key(key), []).append(key)
            first_seen.setdefault(workload(key), len(first_seen))
        return sorted(groups.values(),
                      key=lambda task: first_seen[workload(task[0])])

    def _shared_builds(self, keys: list[RunKey]) -> dict[str, tuple]:
        """Store digest -> :meth:`WorkloadStore.ensure` arguments for
        each workload that two or more of ``keys`` *share* and the store
        does not hold yet.

        Many keys share one workload (every scheme/fault-plan/override
        variant at the same app x cores x seed); building those once up
        front means every run only deserializes compact IR bytes.
        Workloads needed by a single run are left to that run
        (``get_or_build`` populates the store there), so a low-sharing
        plan keeps its build parallelism.  Sharing is defined by the
        *store address* (built-ins share one entry across
        schemes/overrides), so digests are counted, not keys.
        """
        store = self.workload_store
        if store is None or store.disabled:
            return {}
        counts: dict[str, int] = {}
        params_for: dict[str, tuple] = {}
        for key in keys:
            config = resolve_config(key)
            digest = store.digest_for(key.app, key.n_cores, config,
                                      key.intervals, key.seed)
            if digest is None:
                continue
            counts[digest] = counts.get(digest, 0) + 1
            params_for.setdefault(digest, (key.app, key.n_cores, config,
                                           key.intervals, key.seed))
        return {digest: params for digest, params in params_for.items()
                if counts[digest] >= 2
                and not store.path_for(digest).exists()}

    def _prepare_workloads(self, missing: list[RunKey],
                           pool: Optional[ProcessPoolExecutor] = None
                           ) -> None:
        """Build each shared workload (:meth:`_shared_builds`) before
        the runs start: in this process, or — given the dispatch
        ``pool`` — as one :func:`_build_workload` job per workload,
        side by side, merging each job's store-counter deltas.

        Best-effort: a builder that raises is skipped here and fails
        inside its own runs, where the error report carries the full
        ``RunKey`` and healthy siblings still complete.
        """
        builds = self._shared_builds(missing)
        if not builds:
            return
        if pool is None:
            for params in builds.values():
                try:
                    self.workload_store.ensure(*params)
                except Exception:  # noqa: BLE001 - deferred to the runs
                    pass
        else:
            root = str(self.workload_store.root)
            for future in [pool.submit(_build_workload, params, root)
                           for params in builds.values()]:
                try:
                    self._merge_worker_counters(future.result())
                except Exception:  # noqa: BLE001
                    # The worker died; the broken pool fails the
                    # tasks, run by run.
                    pass
        if self.verbose:  # pragma: no cover - progress printing
            print(f"  [engine] built {len(builds)} shared workload(s) "
                  f"for {len(missing)} runs", flush=True)

    def _merge_worker_counters(self, deltas: Optional[dict]) -> None:
        if not deltas:
            return
        for name, count in deltas.items():
            self._worker_counters[name] = \
                self._worker_counters.get(name, 0) + count

    def store_counters(self) -> dict[str, int]:
        """Workload-store counters aggregated across every process:
        the parent store's own, plus the deltas each pool task
        shipped back (``--profile`` prints these)."""
        totals = {name: 0 for name in ("hits", "misses", "builds",
                                       "lru_hits", "corrupt_rebuilds",
                                       "write_failures")}
        for name, count in self._worker_counters.items():
            totals[name] = totals.get(name, 0) + count
        if self.workload_store is not None:
            for name, count in self.workload_store.counters().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def memsys_counters(self) -> dict[str, int]:
        """Memory-system counters summed over this engine's completed
        runs (the in-process memo: every run executed or loaded this
        session); feeds the ``--profile`` memsys row and the bench
        memsys section."""
        totals = {name: 0 for name in (
            "l1_hits", "l1_misses", "l2_hits", "l2_misses",
            "fastpath_loads", "fastpath_stores", "fastpath_epoch_bumps",
            "invalidations", "mem_accesses")}
        for stats in self.memo.values():
            for name in totals:
                totals[name] += getattr(stats, name, 0)
        return totals

    def _dispatch(self, tasks: list[list[RunKey]], report: StreamReport,
                  on_land: Optional[Callable] = None,
                  should_cancel: Optional[Callable[[], bool]] = None
                  ) -> None:
        """Pool dispatch, one future per task: the engine's one parallel
        data plane, recording failures, pending keys and cancellation
        in ``report``.

        Shared workloads the store lacks are built first, one pool job
        each (:meth:`_prepare_workloads`), so the workers never wait on
        a parent-side build and no two runs race to build the same
        workload.  Then every task is submitted at once: the pool only
        moves ``workers + 1`` of them into its call queue, so the rest
        stay cancellable.  Cancellation (``should_cancel``) cancels the
        tasks that have not started and reports their keys in
        ``pending``, while in-flight tasks drain and land.  A submit
        the pool refuses (a broken pool) fails the remaining tasks'
        keys.  ``KeyboardInterrupt`` in the wait loop cancels the queued
        tasks, lands every already-completed one in the memo/cache and
        re-raises with a one-line partial-progress note — Ctrl-C on a
        campaign keeps what it paid for.
        """
        n_runs = sum(map(len, tasks))
        workers = min(self.jobs, len(tasks))
        if self.verbose:  # pragma: no cover - progress printing
            print(f"  [engine] {n_runs} runs as {len(tasks)} task(s) on "
                  f"{workers} workers ...", flush=True)
        store_root = str(self.workload_store.root) \
            if self.workload_store is not None else None
        cache_root = str(self.cache_dir) if self.use_disk_cache else None

        def land(future) -> None:
            task = futures.pop(future)
            try:
                outcome, deltas = future.result()
            except BaseException as exc:  # noqa: BLE001
                # The whole worker died (OOM kill, broken pool): the
                # task is lost.
                outcome, deltas = ("err", exc), None
            self._merge_worker_counters(deltas)
            self._land(task, outcome, report, on_land)

        futures: dict = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                self._prepare_workloads([key for task in tasks
                                         for key in task], pool)
                for task in tasks:
                    try:
                        futures[pool.submit(_run_pooled, task, store_root,
                                            cache_root)] = task
                    except BaseException as exc:  # noqa: BLE001
                        for rest in tasks[len(futures):]:
                            self._land(rest, ("err", exc), report, on_land)
                        break
                running = set(futures)
                while running:
                    if (not report.cancelled and should_cancel is not None
                            and should_cancel()):
                        report.cancelled = True
                        for future in list(futures):    # plan order
                            if future.cancel():
                                report.pending.extend(futures[future])
                        running = {future for future in running
                                   if not future.cancelled()}
                        continue
                    done, running = wait(
                        running, return_when=FIRST_COMPLETED,
                        timeout=0.1 if should_cancel is not None else None)
                    for future in done:
                        land(future)
            except KeyboardInterrupt:
                # Drop the queued tasks, let in-flight ones finish, and
                # keep every completed result: the workers already
                # wrote their cache entries, and landing them in the
                # memo makes the partial session consistent.  Then
                # re-raise — the interrupt still means stop.
                pool.shutdown(wait=True, cancel_futures=True)
                for future in list(futures):
                    if future.done() and not future.cancelled():
                        land(future)
                print(f"  [engine] interrupted: {report.computed} of "
                      f"{n_runs} run(s) landed in the memo/cache; queued "
                      f"tasks cancelled", flush=True)
                raise

    @staticmethod
    def _describe(key: RunKey) -> str:
        scheme = getattr(key.scheme, "value", key.scheme)
        return (f"{workload_name(key.app)} x{key.n_cores} {scheme} "
                f"(io_every={key.io_every}, fault_at={key.fault_at}, "
                f"fault_plan={key.fault_plan}, cluster={key.cluster}, "
                f"seed={key.seed}, scale={key.scale}, "
                f"overrides={dict(key.overrides)})")

    def _land(self, task: list[RunKey], outcome: tuple,
              report: StreamReport, on_land: Optional[Callable]) -> None:
        """Land one task's outcome from :func:`_run_task`.

        A failure is recorded once per key (a failed replica batch
        reports every member, so failure counts match run counts).  A
        result is memoized and cache-written *per key* (no format
        change), the task's wall clock is attributed evenly across its
        keys, and ``on_land`` fires for each.  ``cached`` means the task
        loop already wrote the disk entries — writing them again would
        double every entry's serialization cost.  The task's loop
        counters add into :attr:`loop_counters`, its forks at a
        leader's first scheme return into :attr:`variant_forks`.
        """
        if outcome[0] == "err":
            report.failures.extend((key, outcome[1]) for key in task)
            return
        _tag, stats_list, seconds, cached, counters = outcome
        self.variant_forks += counters.pop(VARIANT_FORKS, 0)
        self.loop_counters.update(counters)
        share = seconds / len(task)
        for key, stats in zip(task, stats_list):
            self.memo[key] = stats
            self.profile[key] = share
            self.batch_width[key] = len(task)
            if not cached:
                self._store_cached(key, stats)
            report.results[key] = stats
            report.computed += 1
            if on_land is not None:
                on_land(key, stats, "run", share)
            if self.verbose:
                scheme = getattr(key.scheme, "value", key.scheme)
                print(f"  [engine] done {workload_name(key.app)} "
                      f"x{key.n_cores} {scheme}{_fault_note(key)} "
                      f"({share:.1f}s)", flush=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def profile_rows(self) -> list[list]:
        """Per-run wall-clock rows (slowest first) for ``--profile``.

        ``cluster`` and ``overrides`` are part of a run's identity, so
        without them two sweep grid points are indistinguishable in the
        profile table.  ``batch`` is the replica-batch width the run was
        computed at (1 = a lone key; batched runs report their share of
        the batch's wall clock).
        """
        rows = []
        for key, seconds in sorted(self.profile.items(),
                                   key=lambda kv: -kv[1]):
            if key.fault_plan is not None:
                faults = f"plan[{key.fault_plan.n_faults}]"
            elif key.fault_at is not None:
                faults = f"{key.fault_at:,.0f}"
            else:
                faults = "-"
            overrides = ",".join(f"{name}={value}" for name, value
                                 in key.overrides.items()) or "-"
            scheme = getattr(key.scheme, "value", key.scheme)
            rows.append([workload_name(key.app), key.n_cores, scheme,
                         key.io_every if key.io_every is not None else "-",
                         faults,
                         key.cluster,
                         overrides,
                         self.batch_width[key],
                         f"{seconds:.2f}"])
        return rows
