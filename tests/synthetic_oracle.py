"""The synthetic generator's per-record loop in pure Python: the oracle
the compiled loop (``syn_thread_trace`` in
``repro/workloads/synthetic.c``) is checked against.

:func:`oracle_build` takes a :class:`SyntheticWorkload` for its layout
(regions, clusters, lock pools, barrier positions) and emits every
thread's trace with ``random.Random`` and a :class:`TraceBuilder`, as
the generator did before its loop was compiled.  Its output must be
byte-identical to ``SyntheticWorkload.build()``: same draws, same
order, same records.
"""

from __future__ import annotations

import random

from repro.trace import CompiledTrace, TraceBuilder
from repro.workloads.base import BarrierSpec, WorkloadSpec
from repro.workloads.synthetic import SyntheticWorkload


def oracle_build(workload: SyntheticWorkload) -> WorkloadSpec:
    """``workload.build()``, with the per-record loop in Python."""
    barriers = []
    if workload.barrier_positions:
        barriers.append(BarrierSpec(
            barrier_id=0, participants=list(range(workload.n_threads)),
            count_line=workload.space.sync_line(),
            flag_line=workload.space.sync_line()))
    traces = [_thread_trace(workload, tid)
              for tid in range(workload.n_threads)]
    return WorkloadSpec(name=workload.profile.name, traces=traces,
                        locks=workload.locks, barriers=barriers)


def _thread_trace(workload: SyntheticWorkload, tid: int) -> CompiledTrace:
    profile = workload.profile
    rng = random.Random((workload.seed * 1_000_003) ^ (tid * 97 + 11))
    trace = TraceBuilder()
    instr = 0
    jitter = rng.randint(0, max(1, workload.interval // 3))
    trace.compute(jitter)
    instr += jitter
    barrier_idx = 0
    recent: list[int] = []
    cluster = workload.cluster_of(tid)
    peers = [p for p in cluster if p != tid]
    lock_pool = workload._lock_pool_for(tid)
    lock_gap = (int(1000 / profile.lock_rate)
                if profile.lock_rate > 0 and lock_pool else None)
    next_lock = rng.randint(1, lock_gap) if lock_gap else None
    mem_every = profile.mem_every
    positions = workload.barrier_positions
    while instr < workload.total_instructions:
        gap = rng.randint(max(1, mem_every // 2), mem_every * 3 // 2)
        trace.compute(gap)
        instr += gap
        while barrier_idx < len(positions) \
                and instr >= positions[barrier_idx]:
            trace.barrier(0)
            barrier_idx += 1
        if next_lock is not None and instr >= next_lock:
            instr += _emit_lock_section(workload, trace, rng, lock_pool)
            next_lock = instr + rng.randint(1, 2 * lock_gap)
            continue
        instr += _emit_access(workload, trace, rng, tid, peers, recent)
    while barrier_idx < len(positions):
        trace.barrier(0)
        barrier_idx += 1
    return trace.build()


def _emit_access(workload: SyntheticWorkload, trace: TraceBuilder,
                 rng: random.Random, tid: int, peers: list[int],
                 recent: list[int]) -> int:
    profile = workload.profile
    if peers and rng.random() < profile.shared_frac:
        if rng.random() < profile.write_frac:
            region = workload.shared_regions[tid]
            trace.store(region[rng.randrange(len(region))])
        else:
            peer = peers[rng.randrange(len(peers))]
            region = workload.shared_regions[peer]
            trace.load(region[rng.randrange(len(region))])
        return 1
    region = workload.private_regions[tid]
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


def _emit_lock_section(workload: SyntheticWorkload, trace: TraceBuilder,
                       rng: random.Random, pool: list[int]) -> int:
    lock_id = pool[rng.randrange(len(pool))]
    data_line = workload.lock_data[lock_id]
    compute = workload.LOCK_SECTION_COMPUTE
    trace.lock(lock_id)
    trace.load(data_line)
    trace.compute(compute)
    trace.store(data_line)
    trace.unlock(lock_id)
    return 2 + compute + 2 + 2
