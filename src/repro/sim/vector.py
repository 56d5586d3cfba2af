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

Every replica rides the leader, however early it diverges: a fork
costs 0.01-0.10 of a run, and running an early replica standalone
instead showed no measured gain.  Who shares a leader:

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
  its scheme (:meth:`Machine.rebind_config`).

Soundness rests on four properties of the scalar kernel:

* **Pause sentinels are unobservable.**  ``Machine.advance(pause_at=t)``
  plants a heap sentinel at ``t`` whose presence gives the fused
  executor the same fusion horizon a pending fault at ``t`` would (the
  fusion condition only reads ``heap[0][0]``); record fusing is
  parity-guaranteed for *any* break pattern (``fuse_quantum=1`` is the
  repo's golden reference), and the sentinel never advances the clock.
  A replica leaving the leader, by a fork or by taking it over, drops
  the sentinels left for the others (``Machine.drop_pauses``).
* **Forks are faithful.**  Every queue entry is plain data in the C
  queue (a core, a fault's injector index, a drain's core and
  checkpoint id), resolved against whichever machine pops it, so a
  fork's pending faults and drains fire inside the fork and the clone
  of the queue is the fork's whole schedule (reprolint RL001 keeps
  callbacks off the queue).
* **Fault ordering is reproduced.**  A scalar run schedules faults
  first (lowest seqs), so at equal timestamps a fault beats any trace
  record; ``Machine.install_faults`` injects the fork's fault events
  with seqs below every live entry, preserving that order.
* **Family members cannot diverge before the leader's first return to
  Python.**  Up to there the compiled loop runs no scheme code: the
  schemes of a family differ only in what their Python hooks do
  (delayed writebacks only change a checkpoint; NONE never takes one),
  and their compiled hooks are the same (NONE runs Global's row hooks;
  the interval its log entries carry is never read, since NONE closes
  no interval).  The leader holds that return unhandled
  (``advance(until_scheme=True)``), so each variant's fork handles it
  as its own scheme — the ``post_op`` gate stays pending and the
  suspended batch resumes exactly.

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


@dataclass
class BatchReport:
    """Per-batch accounting (progress/bench reporting, not results)."""

    width: int = 0                     #: replicas in the batch
    spilled: int = 0                   #: replicas that left the leader
    leader_served: int = 0             #: fault-free replicas served
    #: Always 0 (every replica rides the leader); kept because the
    #: benchmark's per-layer report reads it.
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
    batch of one takes one of two exact paths: the leader's own run
    (fault-free), or the leader itself armed with the faults at the
    first detection (no fork).

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

    The leader runs the scheme of the first replica not of NONE (a run
    without a ``post_op`` gate leads only its own kind): replicas of
    its scheme fork at their first fault detection or are served its
    stats at the end.  Replicas of another scheme are *variants*: until
    they have all left, the leader holds at its first return that would
    run scheme code, and every variant still riding forks there
    (``variant_forks``).  Whoever uses the leader last takes it over
    instead of forking it.
    """
    n = len(fault_lists)
    if n == 0:
        return BatchResult([], BatchReport())
    if replica_configs is not None and len(replica_configs) != n:
        raise ValueError(f"replica_configs has {len(replica_configs)} "
                         f"entries for {n} replicas")
    configs = [config] * n if replica_configs is None \
        else list(replica_configs)
    divergence = [_first_detect(faults, configs[i].detection_latency)
                  for i, faults in enumerate(fault_lists)]
    report = BatchReport(width=n, divergence=divergence)
    results: list[Optional[SimStats]] = [None] * n

    lead_config = next((c for c in configs if c.scheme is not Scheme.NONE),
                       configs[0])
    variants = [i for i in range(n)
                if configs[i].scheme != lead_config.scheme]
    served = [i for i in range(n) if not math.isfinite(divergence[i])
              and configs[i].scheme == lead_config.scheme]
    timeline = sorted((i for i in range(n) if math.isfinite(divergence[i])),
                      key=divergence.__getitem__)
    left: dict[int, float] = {}     # replica -> leader clock it left at
    leader = Machine(lead_config, workload)
    leader.start()

    def depart(index: int, at: float) -> bool:
        """Replica ``index`` leaves the leader; True if it forked."""
        last = not served and len(left) == n - 1
        replica = leader if last else leader.fork()
        # Leaving at the first scheme return, the replica may find the
        # sentinel of the pause the leader was headed for.
        replica.drop_pauses()
        left[index] = at
        if configs[index] is not lead_config:
            replica.rebind_config(configs[index])
        replica.install_faults(list(fault_lists[index]))
        replica.advance()
        results[index] = replica.finalize()
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
                if len(left) == n and not served:
                    break           # the last variant took it over
                # On to the pause at this replica's divergence.
                leader.advance()
                if index in left:
                    continue
        depart(index, divergence[index])
    if waiting:
        leader.advance(until_scheme=True)
        depart_variants()

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
            if configs[i] is not lead_config:
                results[i].config = configs[i]
            left[i] = base.runtime
        report.leader_served += len(served)
    report.counters.update(leader.counters())

    # Shared-prefix accounting: every replica saved the prefix it rode
    # (a served replica its whole run), and the one leader walk that
    # actually happened, the longest, is subtracted.
    report.shared_prefix_cycles = max(
        0.0, sum(left.values()) - max(left.values()))
    return BatchResult(results, report)
