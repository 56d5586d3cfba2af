"""Content-addressed on-disk workload store.

Every simulation run starts from a generated workload, and many runs
share one: all the schemes of a figure sweep, every fault plan of a
campaign and every config-override grid point at the same
``(app, n_cores, interval, intervals, seed)`` replay the *same* traces.
Before this store, each pool worker re-ran ``SyntheticWorkload`` from
the profile for every run; now the engine builds each shared workload
once and the workers deserialize the compact compiled-trace IR
(:meth:`repro.workloads.base.WorkloadSpec.to_bytes`) instead.

Content addressing: an entry's file name is a SHA-256 over

* the *generator fingerprint* — the ``repro.workloads`` package sources
  (``*.py``, and ``*.c``: the generator's compiled loop
  ``synthetic.c``) plus ``repro/trace.py``
  (:func:`generator_paths`), the interpreter's (major, minor) version,
  the platform byte order and the store format version — so any change
  to the generators or the IR silently invalidates every entry, and a
  store shared across interpreter lines or architectures never serves a
  foreign byte image (the seeding is Python's ``random``, whose stream
  is only promised within one interpreter line);
* the workload's *content fingerprint* from the registry (built-ins use
  the profile repr; registered generators opt in via
  ``register_workload(..., fingerprint=...)`` — no fingerprint means
  the store is bypassed and the workload is rebuilt per run);
* the build parameters ``n_threads``, ``checkpoint_interval``,
  ``intervals`` and ``seed``.

Stale entries are never read; delete the directory to reclaim space.
The store is best-effort like the result cache: unreadable or corrupt
entries are rebuilt, write failures are reported once and ignored —
both are *counted* (``corrupt_rebuilds``, ``write_failures``) and the
engine surfaces the counters in ``--profile`` output.

Zero-copy loads: entries are loaded by **mmap-ing** the store file and
building the spec as read-only memoryview traces over the mapping
(:meth:`WorkloadSpec.from_buffer`) — no read, no parse-time copy; the
views keep the mapping alive.  On top of that sits a small per-store
(hence per-worker-process) **LRU of loaded specs** keyed by digest
(``lru_capacity`` entries, default 16; 0 disables), so a worker that
runs many tasks of one workload maps and parses it once.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.params import MachineConfig
from repro.workloads import get_workload, workload_fingerprint
from repro.workloads.base import WORKLOAD_WIRE_FORMAT, WorkloadSpec
from repro.workloads.registry import is_builtin_workload

#: Default capacity of the per-store loaded-spec LRU.
DEFAULT_LRU_CAPACITY = 16

_WORKLOADS_DIR = Path(__file__).resolve().parents[1] / "workloads"
_TRACE_MODULE = Path(__file__).resolve().parents[1] / "trace.py"

_GENERATOR_FINGERPRINT: Optional[str] = None


def generator_paths() -> list[Path]:
    """The files :func:`generator_fingerprint` hashes: the workload
    package's Python and C sources, then the trace IR module."""
    return (sorted(path for pattern in ("*.py", "*.c")
                   for path in _WORKLOADS_DIR.rglob(pattern)
                   if "__pycache__" not in path.parts)
            + [_TRACE_MODULE])


def generator_fingerprint() -> str:
    """SHA-256 over the workload-generator sources and the IR format.

    Deliberately narrower than the engine's whole-package
    ``code_fingerprint``: a simulator change invalidates cached
    *results* but not the stored *workloads* — traces only depend on
    the generators and the trace IR.
    """
    global _GENERATOR_FINGERPRINT
    if _GENERATOR_FINGERPRINT is None:
        digest = hashlib.sha256(
            f"wire:{WORKLOAD_WIRE_FORMAT}"
            f"|python:{sys.version_info[0]}.{sys.version_info[1]}"
            f"|byteorder:{sys.byteorder}".encode())
        for path in generator_paths():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _GENERATOR_FINGERPRINT = digest.hexdigest()
    return _GENERATOR_FINGERPRINT


class WorkloadStore:
    """Loads/saves serialized workloads under one directory.

    ``hits``/``misses`` count this process's load outcomes (pool
    workers keep their own instances, so the counters describe the
    in-process store only).
    """

    def __init__(self, root: os.PathLike,
                 lru_capacity: int = DEFAULT_LRU_CAPACITY):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.builds = 0        # entries actually generated (miss or ensure)
        #: Loads served from the in-process LRU (subset of ``hits``):
        #: no file I/O, no parse, the previously loaded spec object.
        self.lru_hits = 0
        #: Entries that existed on disk but failed to parse and were
        #: rebuilt — a nonzero count means something is corrupting the
        #: store (torn writes survive ``os.replace``? foreign bytes?).
        self.corrupt_rebuilds = 0
        #: Failed entry writes (the first one also disables the store).
        self.write_failures = 0
        #: Set on the first failed write: an unwritable store would
        #: otherwise pay mkdir + tmp-write + rebuild on every run while
        #: claiming to be disabled.
        self.disabled = False
        self._lru_capacity = lru_capacity
        self._lru: OrderedDict[str, WorkloadSpec] = OrderedDict()

    def counters(self) -> dict[str, int]:
        """The load/build/failure counters as one dict — what a pool
        worker ships back so the engine can aggregate store behaviour
        across processes for ``--profile``."""
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "lru_hits": self.lru_hits,
                "corrupt_rebuilds": self.corrupt_rebuilds,
                "write_failures": self.write_failures}

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def digest_for(self, app, n_threads: int, config: MachineConfig,
                   intervals: float, seed: int) -> Optional[str]:
        """The entry name for this build, or None if the workload's
        generator has no content fingerprint (store bypass).

        Built-in generators consume only ``config.checkpoint_interval``,
        so their entries are shared across every other config axis
        (schemes, overrides, ...).  Registered generators receive the
        full config, so they are keyed by the whole resolved config —
        a static ``fingerprint`` string could not express a
        config-dependent output, and a too-narrow key would silently
        serve one grid point's workload to every sweep point.
        """
        content = workload_fingerprint(app)
        if content is None:
            return None
        if is_builtin_workload(app):
            config_key = f"interval:{config.checkpoint_interval}"
        else:
            config_key = f"config:{config!r}"
        ident = (f"{generator_fingerprint()}|{content}"
                 f"|threads:{n_threads}|{config_key}"
                 f"|intervals:{intervals!r}|seed:{seed}")
        return hashlib.sha256(ident.encode()).hexdigest()

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.wl"

    # ------------------------------------------------------------------
    # load/save (best-effort, like the result cache)
    # ------------------------------------------------------------------
    def load(self, digest: str) -> Optional[WorkloadSpec]:
        spec = self._lru.get(digest)
        if spec is not None:
            self._lru.move_to_end(digest)
            self.lru_hits += 1
            return spec
        path = self.path_for(digest)
        try:
            with path.open("rb") as fh:
                # The mapping outlives the handle: the spec's trace
                # views hold it alive, the fd can close immediately.
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            spec = WorkloadSpec.from_buffer(mapped)
        except FileNotFoundError:
            return None            # a clean miss, not a corrupt entry
        except Exception:
            # Truncated or foreign entry: a miss, never a crash — but a
            # *counted* one, so --profile can surface a store that is
            # silently rebuilding on every run.
            self.corrupt_rebuilds += 1
            return None
        self._remember(digest, spec)
        return spec

    def _remember(self, digest: str, spec: WorkloadSpec) -> None:
        if self._lru_capacity <= 0:
            return
        self._lru[digest] = spec
        self._lru.move_to_end(digest)
        while len(self._lru) > self._lru_capacity:
            self._lru.popitem(last=False)

    def save(self, digest: str, spec: WorkloadSpec) -> None:
        if self.disabled:
            return
        path = self.path_for(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(spec.to_bytes())
            os.replace(tmp, path)  # atomic vs. concurrent workers
        except OSError as exc:
            self.write_failures += 1
            self.disabled = True
            print(f"  [engine] warning: workload store disabled "
                  f"({self.root}: {exc})", flush=True)

    # ------------------------------------------------------------------
    # the two entry points
    # ------------------------------------------------------------------
    def get_or_build(self, app, n_threads: int, config: MachineConfig,
                     intervals: float, seed: int) -> WorkloadSpec:
        """The workload for these parameters: a store hit when possible,
        a fresh (and then stored) build otherwise."""
        digest = self.digest_for(app, n_threads, config, intervals, seed)
        if digest is None or self.disabled:
            return get_workload(app, n_threads, config,
                                intervals=intervals, seed=seed)
        spec = self.load(digest)
        if spec is not None:
            self.hits += 1
            return spec
        self.misses += 1
        spec = get_workload(app, n_threads, config,
                            intervals=intervals, seed=seed)
        self.builds += 1
        self.save(digest, spec)
        self._remember(digest, spec)
        return spec

    def ensure(self, app, n_threads: int, config: MachineConfig,
               intervals: float, seed: int) -> Optional[str]:
        """Make sure the entry exists (the engine's shared-workload
        builds, in a pool job or in-process); returns the digest, or
        None when the store is bypassed."""
        if self.disabled:
            return None
        digest = self.digest_for(app, n_threads, config, intervals, seed)
        if digest is None or self.path_for(digest).exists():
            return digest
        spec = get_workload(app, n_threads, config,
                            intervals=intervals, seed=seed)
        self.builds += 1        # only counted once the build succeeded
        self.save(digest, spec)
        return digest
