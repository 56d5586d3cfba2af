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

Generation is deterministic in ``(profile, n_threads, seed)``, and the
threads' traces are emitted directly into the columnar IR of
:class:`repro.trace.CompiledTrace` through a
:class:`repro.trace.TraceBuilder` — no intermediate tuple lists — which
is also what the harness's content-addressed workload store serializes.
"""

from __future__ import annotations

import random

from repro.trace import AddressSpace, CompiledTrace, TraceBuilder
from repro.workloads.base import BarrierSpec, LockSpec, WorkloadSpec
from repro.workloads.profiles import AppProfile, REFERENCE_INTERVAL


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
        # Footprints scale with the interval so the ratio of checkpoint
        # writeback volume to interval length is preserved at any
        # ``MachineConfig.scaled`` scale.
        scale_ref = min(1.0, checkpoint_interval / REFERENCE_INTERVAL * 40)
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
        traces = [self._thread_trace(tid) for tid in range(self.n_threads)]
        return WorkloadSpec(name=self.profile.name, traces=traces,
                            locks=self.locks, barriers=barriers)

    def _thread_trace(self, tid: int) -> CompiledTrace:
        profile = self.profile
        rng = random.Random((self.seed * 1_000_003) ^ (tid * 97 + 11))
        trace = TraceBuilder()
        instr = 0
        # Threads do not start in lockstep: thread creation, warm-up and
        # data distribution skew them apart, which staggers the local
        # checkpoints of different clusters (they re-align at barriers).
        jitter = rng.randint(0, max(1, self.interval // 3))
        trace.compute(jitter)
        instr += jitter
        barrier_idx = 0
        recent: list[int] = []
        cluster = self.cluster_of(tid)
        peers = [p for p in cluster if p != tid]
        lock_pool = self._lock_pool_for(tid)
        lock_gap = (int(1000 / profile.lock_rate)
                    if profile.lock_rate > 0 and lock_pool else None)
        next_lock = rng.randint(1, lock_gap) if lock_gap else None
        mem_every = profile.mem_every
        while instr < self.total_instructions:
            gap = rng.randint(max(1, mem_every // 2), mem_every * 3 // 2)
            trace.compute(gap)
            instr += gap
            while (barrier_idx < len(self.barrier_positions)
                   and instr >= self.barrier_positions[barrier_idx]):
                trace.barrier(0)
                barrier_idx += 1
            if next_lock is not None and instr >= next_lock:
                instr += self._emit_lock_section(trace, rng, lock_pool)
                next_lock = instr + rng.randint(1, 2 * lock_gap)
                continue
            instr += self._emit_access(trace, rng, tid, peers, recent)
        while barrier_idx < len(self.barrier_positions):
            trace.barrier(0)
            barrier_idx += 1
        return trace.build()

    def _emit_access(self, trace: TraceBuilder, rng: random.Random,
                     tid: int, peers: list[int],
                     recent: list[int]) -> int:
        profile = self.profile
        if peers and rng.random() < profile.shared_frac:
            if rng.random() < profile.write_frac:
                # Produce into the thread's own shared region.
                region = self.shared_regions[tid]
                trace.store(region[rng.randrange(len(region))])
            else:
                # Consume from a cluster peer's region (RAW dependence).
                peer = peers[rng.randrange(len(peers))]
                region = self.shared_regions[peer]
                trace.load(region[rng.randrange(len(region))])
            return 1
        # Private access with temporal locality.
        region = self.private_regions[tid]
        if recent and rng.random() < profile.reuse:
            line = recent[rng.randrange(len(recent))]
        else:
            line = region[rng.randrange(len(region))]
            recent.append(line)
            if len(recent) > 16:
                recent.pop(0)
        if rng.random() < profile.write_frac:
            trace.store(line)
        else:
            trace.load(line)
        return 1

    def _emit_lock_section(self, trace: TraceBuilder, rng: random.Random,
                           pool: list[int]) -> int:
        """LOCK; RMW the protected migratory line; UNLOCK."""
        lock_id = pool[rng.randrange(len(pool))]
        data_line = self.lock_data[lock_id]
        trace.lock(lock_id)
        trace.load(data_line)
        trace.compute(self.LOCK_SECTION_COMPUTE)
        trace.store(data_line)
        trace.unlock(lock_id)
        # LOCK/UNLOCK expand to RMWs inside the simulator (2 instr each).
        return 2 + self.LOCK_SECTION_COMPUTE + 2 + 2


def build_workload(profile: AppProfile, n_threads: int,
                   checkpoint_interval: int, intervals: float = 5.0,
                   seed: int = 1) -> WorkloadSpec:
    """Generate a workload for ``profile`` (convenience wrapper)."""
    return SyntheticWorkload(profile, n_threads, checkpoint_interval,
                             intervals, seed).build()
