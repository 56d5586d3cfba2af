"""Synthetic trace generation from an :class:`AppProfile`.

Each thread's trace interleaves run-length-encoded compute with explicit
memory accesses, lock sections and barriers (see ``repro.trace``).  The
generator realizes the profile's communication structure:

* Threads are partitioned into fixed *clusters* of size
  ``round(cluster_frac * n_threads)``; a thread's shared reads target a
  random cluster peer's owned shared region, so producer->consumer
  dependences stay inside the cluster — unless barriers or global locks
  chain the clusters together, exactly the dynamics behind the ICHK
  sizes of Figures 6.1/6.2.
* Lock sections read-modify-write a line owned by the lock (migratory
  data), creating the lock-holder dependence chains of Section 6.1.
* Barriers are emitted at identical logical positions in every thread,
  so every thread crosses every barrier generation exactly once.

Generation is deterministic in ``(profile, n_threads, seed)``.  The
layout (regions, clusters, lock pools, barrier positions) and the
seeding are Python: each thread gets its own ``random.Random``.  The
per-record loop is C (``syn_thread_trace`` in ``synthetic.c``, compiled
into the memory system's extension by :mod:`repro.coherence.build`):
one call per thread takes the thread's generator state
(``Random.getstate()``) and replays CPython's draws one for one, so the
traces are byte-identical to a pure-Python loop over the same
generator.  The columns it writes become a
:class:`repro.trace.CompiledTrace`, which is also what the harness's
content-addressed workload store serializes.  A draw bound of 2**32 or more (an interval or lock
gap that large) raises :class:`ValueError` rather than drawing another
stream.
"""

from __future__ import annotations

import random
from array import array

from repro.coherence.build import load
from repro.trace import ARG_TYPECODE, OP_TYPECODE, AddressSpace, CompiledTrace
from repro.workloads.base import BarrierSpec, LockSpec, WorkloadSpec
from repro.workloads.profiles import AppProfile, REFERENCE_INTERVAL

_module = load()
ffi = _module.ffi
lib = _module.lib


class SyntheticWorkload:
    """Builds a :class:`WorkloadSpec` from an application profile."""

    #: instructions consumed by a lock section beyond its memory ops.
    LOCK_SECTION_COMPUTE = 20

    def __init__(self, profile: AppProfile, n_threads: int,
                 checkpoint_interval: int, intervals: float = 5.0,
                 seed: int = 1):
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.profile = profile
        self.n_threads = n_threads
        self.interval = checkpoint_interval
        self.total_instructions = int(intervals * checkpoint_interval)
        self.seed = seed
        self.space = AddressSpace()
        # The profiles quote footprints at scale 40 (an interval of
        # REFERENCE_INTERVAL / 40); they scale with the interval, above
        # and below scale 40 alike, so the ratio of checkpoint writeback
        # volume to interval length is preserved at any
        # ``MachineConfig.scaled`` scale (up to the floors below).
        scale_ref = checkpoint_interval / REFERENCE_INTERVAL * 40
        self.private_lines = max(8, int(profile.private_lines * scale_ref))
        self.shared_lines = max(4, int(profile.shared_lines * scale_ref))
        self.private_regions = [self.space.region(self.private_lines)
                                for _ in range(n_threads)]
        self.shared_regions = [self.space.region(self.shared_lines)
                               for _ in range(n_threads)]
        self.clusters = self._make_clusters()
        self.locks, self.lock_lines, self.lock_data = self._make_locks()
        self.barrier_positions = self._barrier_positions()

    # ------------------------------------------------------------------
    def _make_clusters(self) -> list[list[int]]:
        """Partition threads into communication clusters."""
        size = max(2, round(self.profile.cluster_frac * self.n_threads))
        size = min(size, self.n_threads)
        clusters = []
        for start in range(0, self.n_threads, size):
            clusters.append(list(range(start,
                                       min(start + size, self.n_threads))))
        # A trailing singleton cluster cannot communicate; merge it.
        if len(clusters) > 1 and len(clusters[-1]) == 1:
            clusters[-2].extend(clusters.pop())
        return clusters

    def cluster_of(self, tid: int) -> list[int]:
        for cluster in self.clusters:
            if tid in cluster:
                return cluster
        raise ValueError(f"thread {tid} not in any cluster")

    def _make_locks(self):
        """Lock pool: global scope shares one pool, cluster scope gets a
        pool per cluster.  Each lock protects one migratory data line."""
        profile = self.profile
        locks: list[LockSpec] = []
        lock_data: dict[int, int] = {}
        pools: dict[str, list[int]] = {}
        if profile.lock_scope == "none" or profile.lock_rate <= 0:
            return locks, pools, lock_data
        next_id = 0
        if profile.lock_scope == "global":
            pool = []
            for _ in range(max(2, self.n_threads // 4)):
                line = self.space.sync_line()
                locks.append(LockSpec(next_id, line))
                lock_data[next_id] = self.space.sync_line()
                pool.append(next_id)
                next_id += 1
            pools["global"] = pool
        else:  # cluster scope
            for ci, cluster in enumerate(self.clusters):
                pool = []
                for _ in range(max(2, len(cluster) // 2)):
                    line = self.space.sync_line()
                    locks.append(LockSpec(next_id, line))
                    lock_data[next_id] = self.space.sync_line()
                    pool.append(next_id)
                    next_id += 1
                pools[f"cluster{ci}"] = pool
        return locks, pools, lock_data

    def _lock_pool_for(self, tid: int) -> list[int]:
        if not self.lock_lines:
            return []
        if self.profile.lock_scope == "global":
            return self.lock_lines["global"]
        for ci, cluster in enumerate(self.clusters):
            if tid in cluster:
                return self.lock_lines.get(f"cluster{ci}", [])
        return []

    def _barrier_positions(self) -> list[int]:
        every = self.profile.barrier_every
        if every is None:
            return []
        # Profiles quote barrier spacing in paper-scale instructions;
        # rescale so the *barriers per checkpoint interval* — what drives
        # ICHK and the BarCK optimization — is preserved at any scale.
        scaled = max(200, int(every * self.interval / REFERENCE_INTERVAL))
        n = self.total_instructions // scaled
        return [scaled * (i + 1) for i in range(n)]

    # ------------------------------------------------------------------
    def build(self) -> WorkloadSpec:
        barriers = []
        if self.barrier_positions:
            barriers.append(BarrierSpec(
                barrier_id=0, participants=list(range(self.n_threads)),
                count_line=self.space.sync_line(),
                flag_line=self.space.sync_line()))
        positions = ffi.new("int64_t[]", self.barrier_positions)
        traces = [self._thread_trace(tid, positions)
                  for tid in range(self.n_threads)]
        return WorkloadSpec(name=self.profile.name, traces=traces,
                            locks=self.locks, barriers=barriers)

    def _thread_trace(self, tid: int, positions) -> CompiledTrace:
        """Thread ``tid``'s trace from the compiled loop; ``positions``
        holds the barrier positions as a C array."""
        profile = self.profile
        rng = random.Random((self.seed * 1_000_003) ^ (tid * 97 + 11))
        _, state, _ = rng.getstate()
        peers = ffi.new("int64_t[]", [self.shared_regions[p].start
                                      for p in self.cluster_of(tid)
                                      if p != tid])
        pool = self._lock_pool_for(tid)
        lock_ids = ffi.new("int64_t[]", pool)
        lock_lines = ffi.new("int64_t[]",
                             [self.lock_data[lock] for lock in pool])
        params = ffi.new("syn_thread_t *", {
            "total_instructions": self.total_instructions,
            # Threads do not start in lockstep: thread creation, warm-up
            # and data distribution skew them apart, which staggers the
            # local checkpoints of different clusters (they re-align at
            # barriers).
            "jitter_bound": max(1, self.interval // 3),
            "mem_every": profile.mem_every,
            "lock_gap": (int(1000 / profile.lock_rate)
                         if profile.lock_rate > 0 and pool else 0),
            "lock_compute": self.LOCK_SECTION_COMPUTE,
            "shared_frac": profile.shared_frac,
            "write_frac": profile.write_frac,
            "reuse": profile.reuse,
            "private_start": self.private_regions[tid].start,
            "private_len": self.private_lines,
            "shared_start": self.shared_regions[tid].start,
            "shared_len": self.shared_lines,
            "peer_starts": peers, "n_peers": len(peers),
            "lock_ids": lock_ids, "lock_lines": lock_lines,
            "n_locks": len(pool),
            "barriers": positions, "n_barriers": len(positions),
        })
        cap = lib.syn_capacity(params)
        ops_c = ffi.new("int8_t[]", cap)
        args_c = ffi.new("int64_t[]", cap)
        n_instructions = ffi.new("int64_t *")
        n = lib.syn_thread_trace(params, ffi.new("uint32_t[]", state[:-1]),
                                 state[-1], ops_c, args_c, cap,
                                 n_instructions)
        if n == lib.SYN_EBOUND:
            raise ValueError(
                f"{profile.name}: a draw bound is empty or at least 2**32 "
                f"(interval {self.interval}, mem_every {profile.mem_every}, "
                f"lock_rate {profile.lock_rate})")
        if n < 0:
            raise RuntimeError(
                f"{profile.name}: thread {tid} needs more than {cap} records")
        # The columns are copied out at their exact length: ``cap`` is an
        # upper bound, about twice the records a thread emits.
        ops = array(OP_TYPECODE)
        ops.frombytes(ffi.buffer(ops_c, n))
        args = array(ARG_TYPECODE)
        args.frombytes(ffi.buffer(args_c, 8 * n))
        return CompiledTrace(ops, args, n_instructions=n_instructions[0])


def build_workload(profile: AppProfile, n_threads: int,
                   checkpoint_interval: int, intervals: float = 5.0,
                   seed: int = 1) -> WorkloadSpec:
    """Generate a workload for ``profile`` (convenience wrapper)."""
    return SyntheticWorkload(profile, n_threads, checkpoint_interval,
                             intervals, seed).build()
