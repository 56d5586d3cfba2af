"""Vectorized multi-replica campaign executor.

A fault campaign fans one compiled workload out into N seeded replicas
that differ *only* in their fault plans — and a replica is bit-identical
to every other until its first fault is detected.  The executor
exploits exactly that: one fault-free **leader** machine walks the
shared ``CompiledTrace`` ops/args columns once per batch, pausing at
each replica's first fault-detection time (sorted ascending); at each
pause the replica is **spilled** into a scalar
:class:`~repro.sim.machine.Machine` via :meth:`Machine.fork`, armed
with its fault plan, and driven to completion by the ordinary scalar
kernel.  Per-replica batch state (divergence clocks, fault counts,
shared-prefix savings) lives in plain ``N``-element lists; anything
divergence-heavy — rollbacks, cluster barriers, I/O injection after the
spill — runs in the spilled scalar machine, so every replica's
``SimStats`` (including the exact cycle-bucket partition) is unchanged
by construction.

Soundness rests on three properties of the scalar kernel:

* **Pause sentinels are unobservable.**  ``Machine.advance(pause_at=t)``
  plants a heap sentinel at ``t`` whose presence gives the fused
  executor the same fusion horizon a pending fault at ``t`` would (the
  fusion condition only reads ``heap[0][0]``); record fusing is
  parity-guaranteed for *any* break pattern (``fuse_quantum=1`` is the
  repo's golden reference), and the sentinel never advances the clock.
* **Forks are faithful.**  Every scheduled callback is a
  :class:`~repro.sim.events.DurableCall` descriptor that re-binds to
  the firing machine, so a fork's pending drains complete inside the
  fork (``Machine.schedule_call`` is the only scheduling primitive, and
  reprolint RL001 keeps closures off the event heap).
* **Fault ordering is reproduced.**  A scalar run schedules faults
  first (lowest seqs), so at equal timestamps a fault beats any trace
  record; ``Machine.install_faults`` injects the fork's fault events
  with seqs below every live entry, preserving that order.

The speedup is the shared prefix: for first-detections at
``t_1 <= ... <= t_N`` over a run of length ``T``, the batch simulates
``T + sum(T - t_i)`` cycles instead of ``N * T``.  Dense fault
campaigns (MTTF ~ one interval) diverge early and gain modestly;
sparse campaigns (and fault-free replicas, which are served directly
from the leader's finalized stats) approach ``N``-fold savings.  No
cycle of post-divergence work is ever approximated away — this is an
exact-prefix-sharing optimization, not a sampling one.

The experiment engine runs every task through this executor; a lone
key is a batch of one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.params import MachineConfig
from repro.sim.machine import Machine
from repro.sim.stats import SimStats
from repro.workloads.base import WorkloadSpec

__all__ = ["run_replica_batch", "BatchResult", "BatchReport"]

#: A replica's faults: the plain ``(time, pid)`` list a RunKey carries.
FaultList = Sequence[tuple[float, int]]


#: Forking the leader costs a deep copy of the whole machine state
#: (~10-15% of a full run's wall clock), so a replica only rides the
#: leader when its shared prefix is worth more than the fork: replicas
#: whose first divergence lands before this fraction of the estimated
#: run length are run standalone through the ordinary scalar kernel
#: instead — bit-identical either way, the threshold only moves cost.
SPILL_THRESHOLD_FRACTION = 0.2


@dataclass
class BatchReport:
    """Per-batch accounting (progress/bench reporting, not results)."""

    width: int = 0                     #: replicas in the batch
    spilled: int = 0                   #: replicas run by the scalar kernel
    leader_served: int = 0             #: fault-free replicas served
    #: Spilled replicas that diverged too early to be worth a fork and
    #: ran standalone (subset of ``spilled``).
    direct_runs: int = 0
    #: Per-replica divergence times (inf = never diverged), batch order.
    divergence: list[float] = field(default_factory=list)
    #: Simulated cycles the batch shared in the leader instead of
    #: re-executing per replica: sum of divergence prefixes minus the
    #: one leader walk that actually happened.
    shared_prefix_cycles: float = 0.0


@dataclass
class BatchResult:
    """Stats per replica (input order) plus the batch accounting."""

    stats: list[SimStats]
    report: BatchReport


def _first_detect(faults: FaultList, detection_latency: float) -> float:
    """Detection time of a replica's earliest fault (inf if none)."""
    if not faults:
        return float("inf")
    return float(min(time for time, _pid in faults) + detection_latency)


def run_replica_batch(config: MachineConfig, workload: WorkloadSpec,
                      fault_lists: Sequence[FaultList],
                      replica_configs:
                      Optional[Sequence[MachineConfig]] = None,
                      ) -> BatchResult:
    """Run N replicas of one workload, sharing their common prefix.

    ``fault_lists[i]`` is replica *i*'s fault campaign (empty = fault
    free).  Returns per-replica ``SimStats`` in input order, each equal
    to ``Machine(config, workload, faults=fault_lists[i]).run()``.  A
    batch of one takes one of three exact paths: a direct scalar run
    (early fault), the leader's own run (fault-free), or the leader
    itself armed with the faults (late fault, no fork).

    ``replica_configs[i]`` (default: ``config`` for everyone) lets the
    replicas differ in config fields the scheme declared **fault-free
    invariant** (``FAULT_FREE_INVARIANT_OVERRIDES``, e.g.
    ``detection_latency`` under Global/NONE): the shared fault-free
    prefix is bit-identical under every member's config by that
    declaration, each replica's divergence clock uses its *own*
    detection latency, and each fork is re-pointed at its own config
    (:meth:`Machine.rebind_config`) before its faults are installed —
    replica *i*'s stats then equal ``Machine(replica_configs[i],
    workload, faults=fault_lists[i]).run()``.  The caller
    (``ExperimentEngine._batch_key``) is responsible for only grouping
    configs whose differences are declared invariant.
    """
    n = len(fault_lists)
    if n == 0:
        return BatchResult([], BatchReport())
    if replica_configs is not None and len(replica_configs) != n:
        raise ValueError(f"replica_configs has {len(replica_configs)} "
                         f"entries for {n} replicas")

    def config_of(index: int) -> MachineConfig:
        return config if replica_configs is None \
            else replica_configs[index]

    # -- batch schedule: per-replica divergence clocks -----------------
    divergence = [_first_detect(faults, config_of(i).detection_latency)
                  for i, faults in enumerate(fault_lists)]

    # Cost model: a fork only pays when the shared prefix beats the
    # deep-copy.  Instruction counts lower-bound the run length (1-IPC
    # cores only ever stall longer), so the threshold is conservative.
    run_estimate = max((trace.instruction_count()
                        for trace in workload.traces), default=1)
    threshold = SPILL_THRESHOLD_FRACTION * run_estimate
    finite = [math.isfinite(t) for t in divergence]
    direct = [finite[i] and divergence[i] < threshold for i in range(n)]

    report = BatchReport(width=n, divergence=list(divergence))
    results: list[Optional[SimStats]] = [None] * n

    for index in filter(direct.__getitem__, range(n)):
        results[index] = Machine(config_of(index), workload,
                                 faults=list(fault_lists[index])).run()
        report.spilled += 1
        report.direct_runs += 1

    fork_order = [i for i in sorted(range(n), key=divergence.__getitem__)
                  if finite[i] and not direct[i]]
    served = [i for i in range(n)
              if divergence[i] == float("inf")]
    leader = None
    if fork_order or served:
        leader = Machine(config, workload)
        leader.start()
    for position, index in enumerate(fork_order):
        at = divergence[index]
        if not leader.finished:
            leader.advance(pause_at=at)
        # The last forked replica of a batch with nobody left to serve
        # takes over the leader in place: forking would deep-copy a
        # machine only to abandon the original.
        last = position == len(fork_order) - 1 and not served
        replica = leader if last else leader.fork()
        rc = config_of(index)
        if rc is not config:
            replica.rebind_config(rc)
        replica.install_faults(list(fault_lists[index]))
        replica.advance()
        results[index] = replica.finalize()
        report.spilled += 1

    if served:
        # Fault-free replicas: the leader *is* their run.  Serve the
        # first directly and deep-copy for the rest so no two RunKeys
        # alias one mutable SimStats.  A served replica with its own
        # (invariant-field) config gets it stamped into the stats — the
        # run itself is identical, but ``SimStats.config`` equality with
        # the scalar twin is part of the bit-identity contract.
        if not leader.finished:
            leader.advance()
        base = leader.finalize()
        results[served[0]] = base
        for i in served[1:]:
            results[i] = copy.deepcopy(base)
        for i in served:
            rc = config_of(i)
            if rc is not config:
                results[i].config = rc
        report.leader_served = len(served)

    # Shared-prefix accounting: each *forked* replica saved its
    # divergence prefix t_i, each leader-served replica its whole run;
    # direct runs shared nothing and the one leader walk that actually
    # happened is subtracted.
    forked_prefix = float(sum(divergence[i] for i in fork_order))
    if served:
        walked = results[served[0]].runtime
        shared = forked_prefix + len(served) * walked - walked
    else:
        walked = float(max((divergence[i] for i in fork_order),
                           default=0.0))
        shared = forked_prefix - walked
    report.shared_prefix_cycles = max(0.0, shared)
    return BatchResult(list(results), report)
