"""Rebound: coordinated local checkpointing (Sections 3 and 4).

The scheme plugs into the coherence engine as its
:class:`~repro.coherence.protocol.DependenceTracker`: every transaction
that crosses processors updates MyProducers / MyConsumers / WSIG.  When
a processor's interval expires (or it is about to perform output I/O) it
builds its Interaction Set for Checkpointing and checkpoints it; on a
fault it builds the Interaction Set for Recovery and rolls it back.
Variants: with/without delayed writebacks, with/without the barrier
optimization (Figure 4.3a).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.coherence.protocol import overrides
from repro.core.barrier_opt import BarrierCheckpointCoordinator
from repro.core.checkpoint_protocol import build_ichk
from repro.core.cluster import ClusterMap
from repro.core.dep_registers import DepRegisterFile
from repro.core.rollback_protocol import build_irec
from repro.core.scheme_base import BARRIER_HOOKS, BaseScheme
from repro.interconnect import MessageClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cores import Core
    from repro.sim.machine import Machine


class ReboundScheme(BaseScheme):
    """Coordinated local checkpointing on directory coherence."""

    enabled = True

    #: The compiled core keeps the Dep registers and runs the hooks.
    NATIVE_HOOKS = "rebound"

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        self.files: list[DepRegisterFile] = []
        self.barrier_coordinator = BarrierCheckpointCoordinator(self)
        self.depset_defers = 0

    def attach(self, machine: "Machine") -> None:
        config = self.config
        # A compiled core running these hooks holds the Dep registers;
        # otherwise (the oracle, a subclass overriding a hook) they are
        # Python objects.
        files = getattr(machine.engine, "dep_files", lambda: None)()
        self.files = files if files is not None else [
            DepRegisterFile(pid, config.n_dep_sets, config.wsig_bits,
                            config.wsig_hashes)
            for pid in range(config.n_cores)
        ]
        # Cluster-granular tracking (Chapter 8): dependences implicate
        # whole clusters of processors; size 1 is the paper's default.
        self.clusters = ClusterMap(config.n_cores, config.dep_cluster_size)

    # ------------------------------------------------------------------
    # DependenceTracker interface (driven by the coherence engine)
    # ------------------------------------------------------------------
    def on_write(self, pid: int, addr: int) -> None:
        # Straight to the active set's WSIG (what DepRegisterFile.on_write
        # does, one call shorter on the engine's store path).
        self.files[pid].sets[-1].wsig.add(addr)

    def record_dependence(self, consumer: int, producer: int,
                          addr: int) -> bool:
        files = self.files
        clusters = self.clusters
        # MyProducers is set as the line arrives (superset semantics).
        # In cluster mode (Chapter 8) the bit identifies the producer's
        # whole cluster, and every member of the consumer's cluster
        # records it.
        if clusters.trivial:
            files[consumer].record_producer(producer)
        else:
            producer_mask = clusters.expand_pid(producer)
            for member in clusters.members_of(clusters.cluster_of(consumer)):
                files[member].active.producers |= producer_mask
        claims, genuine, dep = files[producer].query_writer(addr)
        if claims:
            if clusters.trivial:
                files[producer].record_consumer(dep, consumer, genuine)
            else:
                consumer_mask = clusters.expand_pid(consumer)
                dep.consumers |= consumer_mask
                if genuine:
                    dep.consumers_genuine |= consumer_mask
            if genuine:
                files[consumer].record_producer_genuine(producer)
        return claims

    def on_line_left_cache(self, pid: int, addr: int, now: float) -> None:
        core = self.machine.cores[pid]
        if core.pending_delayed > 0:
            core.pending_delayed -= 1

    def interval_of(self, pid: int) -> int:
        return self.files[pid].active.interval_id

    def delayed_interval_of(self, pid: int) -> int:
        core = self.machine.cores[pid]
        if core.delayed_ckpt_id is not None:
            return core.delayed_ckpt_id
        return self.interval_of(pid)

    # ------------------------------------------------------------------
    # interval bookkeeping hooks for the shared executor
    # ------------------------------------------------------------------
    def _rotate(self, pid: int, now: float) -> None:
        super()._rotate(pid, now)
        self.files[pid].open_interval(now)

    def _mark_interval_complete(self, pid: int, interval: int,
                                now: float) -> None:
        dep = self.files[pid].set_for_interval(interval)
        if dep is not None:
            dep.ckpt_complete_time = now

    def _drop_dep_state(self, pid: int, ckpt_id: int, now: float) -> None:
        self.files[pid].drop_rolled_back(ckpt_id, now)

    # ------------------------------------------------------------------
    # checkpoint policy
    # ------------------------------------------------------------------
    def post_op(self, core: "Core", now: float) -> None:
        if core.instr_since_ckpt < self.config.checkpoint_interval:
            return
        if now < core.ckpt_busy_until:
            return
        self.initiate_checkpoint(core, now, kind="interval")

    def on_output(self, core: "Core", now: float) -> Optional[float]:
        if now < core.ckpt_busy_until:
            self.nacks += 1
            self.accelerate_drain(core, now)
            self._charge_backoff(core, now, core.ckpt_busy_until)
            core.not_before = max(core.not_before, core.ckpt_busy_until)
            return None
        return self.initiate_checkpoint(core, now, kind="io")

    def initiate_checkpoint(self, core: "Core", now: float,
                            kind: str) -> Optional[float]:
        """Run the distributed checkpoint protocol from ``core``.

        Returns the initiator's resume time, or None when the attempt hit
        a Busy member or a Dep-set shortage and must be retried after a
        back-off (Section 3.3.4's deadlock-avoidance rule).
        """
        result = build_ichk(self, core.pid, now)
        self.declines += result.declines
        if not result.ok:
            # Busy: release everything, back off a random number of
            # cycles, retry later.  A busy member still draining delayed
            # writebacks gets a Nack, which hurries its drain.
            self.busy_retries += 1
            busy_core = self.machine.cores[result.busy_member]
            self.nacks += busy_core.pending_delayed > 0
            self.accelerate_drain(busy_core, now)
            backoff = self.rng.randint(1, self.config.backoff_max)
            self._charge_backoff(core, now, now + backoff)
            core.not_before = max(core.not_before, now + backoff)
            return None
        # Every member rotates to a fresh Dep register set; a member out
        # of sets forces the initiator to wait (the member would stall).
        latency = self.config.detection_latency
        waits = []
        for pid in result.members:
            if not self.files[pid].can_open_interval(now, latency):
                waits.append(self.files[pid].stall_until(latency))
        if waits:
            self.depset_defers += 1
            known = [w for w in waits if w is not None]
            wake = max(known) if known and None not in waits else \
                now + self.rng.randint(1, self.config.backoff_max)
            core.charge_stall("depset_stall", now, wake)
            core.not_before = max(core.not_before, wake)
            return None
        # CK?/Ack/Accept traffic: one round trip per closure wave.
        self.machine.network.send(MessageClass.PROTOCOL,
                                  3 * len(result.members))
        start = now + result.depth * self.config.msg_cycles
        members = [self.machine.cores[pid] for pid in result.members]
        return self._execute_checkpoint(
            members, start, kind=kind, initiator=core.pid,
            genuine_size=len(result.genuine_members))

    # ------------------------------------------------------------------
    # barrier optimization (Section 4.2.1)
    # ------------------------------------------------------------------
    def on_barrier_update(self, core: "Core", barrier, now: float,
                          is_last: bool) -> None:
        if self.config.scheme.barrier_optimization:
            self.barrier_coordinator.on_update(core, barrier, now)

    def barrier_release_gate(self, barrier, now: float) -> float:
        if not self.config.scheme.barrier_optimization:
            return now
        return self.barrier_coordinator.release_gate(barrier, now)

    def barrier_hooks_act(self) -> bool:
        return (self.config.scheme.barrier_optimization or
                overrides(type(self), ReboundScheme, BARRIER_HOOKS))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def handle_fault(self, pid: int, detect_time: float) -> None:
        """Roll back the faulting core's Interaction Set for Recovery."""
        result = build_irec(self, pid, detect_time)
        self._execute_rollback(result.targets, detect_time, initiator=pid,
                               protocol_hops=result.depth + 2)
        # Recovery abandons every BarCK in progress.
        self.barrier_coordinator.pending.clear()

    def finalize(self, stats) -> None:
        super().finalize(stats)
        stats.wsig_tests = sum(
            f.retired_wsig_tests + sum(d.wsig.tests for d in f.sets)
            for f in self.files)
        stats.wsig_false_positives = sum(
            f.retired_wsig_fps + sum(d.wsig.false_positives for d in f.sets)
            for f in self.files)
