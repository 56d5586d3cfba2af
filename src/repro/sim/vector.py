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

Who rides a leader:

* replicas of one run that differ in their faults, or in config fields
  the scheme declared fault-free invariant (``detection_latency`` under
  Global and NONE);
* replicas of the schemes of one **prefix family**
  (:func:`~repro.core.factory.prefix_family`: NONE, Global and
  Global_DWB; Rebound_NoDWB and Rebound).  The leader runs one member
  scheme that has a ``post_op`` gate.  A member of another scheme (a
  *variant*) leaves at the leader's first return that would run scheme
  code — the first checkpoint decision, an OUTPUT or END record, a
  call — or earlier at its own first fault detection, re-pointed at
  its scheme (:meth:`Machine.rebind_config`);
* only replicas whose divergence is worth a fork: a first detection
  before ``SPILL_THRESHOLD_FRACTION`` of the run runs standalone, and
  variants ride only when ``checkpoint_interval`` clears the same
  threshold (no core reaches the first gate before it has run that many
  instructions).

Soundness rests on four properties of the scalar kernel:

* **Pause sentinels are unobservable.**  ``Machine.advance(pause_at=t)``
  plants a heap sentinel at ``t`` whose presence gives the fused
  executor the same fusion horizon a pending fault at ``t`` would (the
  fusion condition only reads ``heap[0][0]``); record fusing is
  parity-guaranteed for *any* break pattern (``fuse_quantum=1`` is the
  repo's golden reference), and the sentinel never advances the clock.
  A replica leaving the leader, by a fork or by taking it over, drops
  the sentinels left for the others (``Machine.drop_pauses``).
* **Forks are faithful.**  Every scheduled callback is a
  :class:`~repro.sim.events.DurableCall` descriptor that re-binds to
  the firing machine, so a fork's pending drains complete inside the
  fork (``Machine.schedule_call`` is the only scheduling primitive, and
  reprolint RL001 keeps closures off the event heap).
* **Fault ordering is reproduced.**  A scalar run schedules faults
  first (lowest seqs), so at equal timestamps a fault beats any trace
  record; ``Machine.install_faults`` injects the fork's fault events
  with seqs below every live entry, preserving that order.
* **Family members cannot diverge before the leader's first return to
  Python.**  Up to there the compiled loop runs no scheme code: the
  schemes of a family differ only in what their Python hooks do
  (delayed writebacks only change a checkpoint; NONE never takes one),
  and their compiled hooks log every writeback alike, up to the
  interval tag (a NONE fork re-tags Global's interval 1 as its 0,
  ``CompiledEngine.rebind_tracker``).  The leader holds
  that return unhandled (``advance(until_scheme=True)``), so each
  variant's fork handles it as its own scheme — the ``post_op`` gate
  stays pending and the suspended batch resumes exactly.

The speedup is the shared prefix: for departures (first detections, or
the leader's first scheme return ``h`` for a variant) at
``t_1 <= ... <= t_N`` over a run of length ``T``, the batch simulates
``T + sum(T - t_i)`` cycles instead of ``N * T``.  Dense fault
campaigns (MTTF ~ one interval) diverge early and gain modestly;
sparse campaigns (and fault-free replicas, which are served directly
from the leader's finalized stats) approach ``N``-fold savings; a
fault-free family of ``k`` schemes saves ``(k - 1) * h``.  No cycle of
post-divergence work is ever approximated away — this is an
exact-prefix-sharing optimization, not a sampling one.

The experiment engine runs every task through this executor; a lone
key is a batch of one.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.sim.stats import SimStats
from repro.workloads.base import WorkloadSpec

__all__ = ["run_replica_batch", "BatchResult", "BatchReport"]

#: A replica's faults: the plain ``(time, pid)`` list a RunKey carries.
FaultList = Sequence[tuple[float, int]]


#: Forking the leader costs a copy of the whole machine state: the
#: compiled core (caches, directory, image, undo log, Dep registers) and
#: the loop are cloned in C, the scheme, sync and core objects are
#: copied (completed snapshots shared).  For a scale-40 ocean or
#: water_sp machine forked at a third to half of its run that is about
#: 0.5-1.5 ms at 16 cores and 2.2-2.8 ms at 64, 0.01-0.10 of a whole
#: run (2-CPU dev box).
#: A replica only rides the leader when its shared prefix is worth more
#: than the fork: replicas whose first divergence lands before this
#: fraction of the estimated run length are run standalone through the
#: ordinary scalar kernel instead — bit-identical either way, the
#: threshold only moves cost.
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
    #: Forks taken at a leader's first scheme return, one per member of
    #: another scheme of the leader's prefix family still riding there
    #: (subset of ``spilled``).
    variant_forks: int = 0
    #: Per-replica divergence times, batch order: the first fault
    #: detection, or for a member of another scheme than its leader's
    #: the leader's first scheme return if that came first (inf =
    #: never diverged).
    divergence: list[float] = field(default_factory=list)
    #: Simulated cycles the batch shared in the leader instead of
    #: re-executing per replica: sum of divergence prefixes minus the
    #: one leader walk that actually happened.
    shared_prefix_cycles: float = 0.0
    #: The machine loops' counters summed over every machine the batch
    #: ran (:meth:`Machine.counters`; a fork counts only its own work).
    counters: Counter = field(default_factory=Counter)


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
    replicas differ in two ways, each re-pointed at its own config
    (:meth:`Machine.rebind_config`) when it leaves the leader, so that
    replica *i*'s stats equal ``Machine(replica_configs[i], workload,
    faults=fault_lists[i]).run()``:

    * in config fields the scheme declared **fault-free invariant**
      (``FAULT_FREE_INVARIANT_OVERRIDES``, e.g. ``detection_latency``
      under Global/NONE): the shared fault-free prefix is bit-identical
      under every member's config by that declaration, and each
      replica's divergence clock uses its *own* detection latency;
    * in the scheme, within one prefix family
      (:func:`~repro.core.factory.prefix_family`): the leader runs one
      member's scheme, and members of the others leave it at its first
      return that would run scheme code, or earlier at their own first
      fault detection.

    The caller (``ExperimentEngine._batch_key``) is responsible for only
    grouping configs that differ in these ways.
    """
    n = len(fault_lists)
    if n == 0:
        return BatchResult([], BatchReport())
    if replica_configs is not None and len(replica_configs) != n:
        raise ValueError(f"replica_configs has {len(replica_configs)} "
                         f"entries for {n} replicas")
    configs = [config] * n if replica_configs is None \
        else list(replica_configs)

    # -- batch schedule: per-replica divergence clocks -----------------
    divergence = [_first_detect(faults, configs[i].detection_latency)
                  for i, faults in enumerate(fault_lists)]

    # Cost model: a fork only pays when the shared prefix beats the
    # deep-copy.  Instruction counts lower-bound the run length (1-IPC
    # cores only ever stall longer), so the threshold is conservative.
    run_estimate = max((trace.instruction_count()
                        for trace in workload.traces), default=1)
    threshold = SPILL_THRESHOLD_FRACTION * run_estimate
    report = BatchReport(width=n, divergence=list(divergence))
    batch = _Batch(workload, fault_lists, configs, report)

    # A member of another scheme leaves the leader at its first scheme
    # return at the latest, which no core reaches before it has run
    # ``checkpoint_interval`` instructions: the same threshold decides
    # whether that prefix is worth a fork.  If it is not, every scheme
    # runs its own leader.
    shared = config.checkpoint_interval >= threshold
    groups: dict = {}
    for index in range(n):
        if math.isfinite(divergence[index]) \
                and divergence[index] < threshold:
            batch.run_direct(index)
            continue
        groups.setdefault(None if shared else configs[index].scheme,
                          []).append(index)
    for riders in groups.values():
        batch.run_leader(riders)
    return BatchResult(batch.results, report)


class _Batch:
    """One batch's machines: direct runs and one leader per group of
    riders (:func:`run_replica_batch`)."""

    def __init__(self, workload: WorkloadSpec,
                 fault_lists: Sequence[FaultList],
                 configs: list[MachineConfig], report: BatchReport):
        self.workload = workload
        self.fault_lists = fault_lists
        self.configs = configs
        self.report = report
        self.results: list[Optional[SimStats]] = [None] * len(configs)

    def run_direct(self, index: int) -> None:
        """A replica that diverges too early to ride: run standalone."""
        machine = Machine(self.configs[index], self.workload,
                          faults=list(self.fault_lists[index]))
        self.results[index] = machine.run()
        self.report.counters.update(machine.counters())
        self.report.spilled += 1
        self.report.direct_runs += 1

    def run_leader(self, riders: list[int]) -> None:
        """Walk one leader for ``riders`` (batch indices).

        The leader runs the scheme of the first rider not of NONE (a
        run without a ``post_op`` gate leads only its own kind): its
        members
        fork at their first fault detection or are served its stats at
        the end.  Members of another scheme of its prefix family are
        *variants*: until they have all left, the leader holds at its
        first return that would run scheme code, and every variant
        still riding forks there (``variant_forks``).  Whoever uses the
        leader last takes it over instead of forking it.
        """
        configs, report = self.configs, self.report
        divergence = report.divergence
        lead = next((i for i in riders
                     if configs[i].scheme is not Scheme.NONE), riders[0])
        lead_config = configs[lead]
        own = [i for i in riders
               if configs[i].scheme == lead_config.scheme]
        variants = [i for i in riders if i not in own]
        served = [i for i in own if not math.isfinite(divergence[i])]
        timeline = sorted((i for i in riders
                           if math.isfinite(divergence[i])),
                          key=divergence.__getitem__)
        left: dict[int, float] = {}     # rider -> leader clock it left at
        leader = Machine(lead_config, self.workload)
        leader.start()

        def depart(index: int, at: float) -> bool:
            """Rider ``index`` leaves the leader; True if it forked."""
            last = not served and len(left) == len(riders) - 1
            replica = leader if last else leader.fork()
            # Leaving at the first scheme return, the rider may find the
            # sentinel of the pause the leader was headed for.
            replica.drop_pauses()
            left[index] = at
            if configs[index] is not lead_config:
                replica.rebind_config(configs[index])
            replica.install_faults(list(self.fault_lists[index]))
            replica.advance()
            self.results[index] = replica.finalize()
            if replica is not leader:
                report.counters.update(replica.counters())
            report.spilled += 1
            return not last

        def depart_variants() -> None:
            """The leader holds its first scheme return: every variant
            still riding leaves here."""
            at = leader.now
            for index in variants:
                if index not in left:
                    divergence[index] = at
                    report.variant_forks += depart(index, at)

        waiting = bool(variants)
        for index in timeline:
            if index in left:
                continue
            if not leader.finished:
                leader.advance(pause_at=divergence[index],
                               until_scheme=waiting)
                if leader.held and waiting:
                    waiting = False
                    depart_variants()
                    if len(left) == len(riders) and not served:
                        break           # the last variant took it over
                    # On to the pause at this rider's divergence.
                    leader.advance()
                    if index in left:
                        continue
            depart(index, divergence[index])
        if waiting:
            leader.advance(until_scheme=True)
            depart_variants()

        if served:
            # Fault-free replicas: the leader *is* their run.  Serve the
            # first directly and deep-copy for the rest so no two
            # RunKeys alias one mutable SimStats.  A served replica with
            # its own (invariant-field) config gets it stamped into the
            # stats — the run itself is identical, but
            # ``SimStats.config`` equality with the scalar twin is part
            # of the bit-identity contract.
            if not leader.finished:
                leader.advance()
            base = leader.finalize()
            self.results[served[0]] = base
            for i in served[1:]:
                self.results[i] = copy.deepcopy(base)
            for i in served:
                if configs[i] is not lead_config:
                    self.results[i].config = configs[i]
                left[i] = base.runtime
            report.leader_served += len(served)
        report.counters.update(leader.counters())

        # Shared-prefix accounting: every rider saved the prefix it
        # rode (a served replica its whole run), and the one leader
        # walk that actually happened, the longest, is subtracted.
        if left:
            report.shared_prefix_cycles += max(
                0.0, sum(left.values()) - max(left.values()))
