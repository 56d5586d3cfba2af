"""The barrier checkpoint optimization (Section 4.2.1).

Global barriers chain every participant into one interaction set
(Figure 4.2b), so a checkpoint right after a barrier is effectively
global.  The optimization takes that checkpoint *proactively at* the
barrier and hides its writebacks behind the barrier's imbalance time:

1. The first processor that completes the barrier's Update section and
   is interested in checkpointing (it has run a reasonable fraction of
   its interval) sends BarCK to all participants.
2. Every participant — including ones already spinning on the flag —
   snapshots its register state, rotates its Dep registers and starts
   writing its dirty lines back in the background while it spins or
   keeps executing toward the barrier.
3. The last arriver may only write the flag after every participant has
   both arrived and finished its writebacks, so processors leave the
   barrier with a tiny ICHK: themselves plus the flag writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backref import backref
from repro.interconnect import MessageClass
from repro.sim.stats import CheckpointEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rebound_scheme import ReboundScheme
    from repro.sim.cores import Core
    from repro.sim.sync import BarrierState


@dataclass(slots=True)
class BarrierCheckpoint:
    """A BarCK in progress at one barrier: who sent it, when, and each
    member's ``(ckpt_id, n_lines, start)`` by pid."""

    initiator: int
    time: float
    members: dict[int, tuple] = field(default_factory=dict)


class BarrierCheckpointCoordinator:
    """Implements the BarCK protocol for a :class:`ReboundScheme`."""

    #: The scheme (weak: the scheme owns the coordinator).
    scheme = backref()

    def __init__(self, scheme: "ReboundScheme"):
        self.scheme = scheme
        self.barck_episodes = 0
        #: The BarCK in progress by barrier id; it ends at the barrier's
        #: release gate, or when a rollback clears it.
        self.pending: dict[int, BarrierCheckpoint] = {}

    # ------------------------------------------------------------------
    def on_update(self, core: "Core", barrier: "BarrierState",
                  now: float) -> None:
        """A participant finished the barrier's Update section."""
        scheme = self.scheme
        config = scheme.config
        barck = self.pending.get(barrier.barrier_id)
        if barck is None:
            threshold = (config.barrier_interest_fraction *
                         config.checkpoint_interval)
            if core.instr_since_ckpt < threshold:
                return  # not interested; a later arriver may still be
            barck = BarrierCheckpoint(core.pid, now)
            self.pending[barrier.barrier_id] = barck
            self.barck_episodes += 1
            scheme.machine.network.send(MessageClass.PROTOCOL,
                                        2 * barrier.n)
            # Processors already spinning are forced to participate.
            for pid in barrier.arrived:
                if pid != core.pid:
                    self._member_checkpoint(scheme.machine.cores[pid],
                                            barck, now)
        self._member_checkpoint(core, barck, now)

    def _member_checkpoint(self, core: "Core", barck: BarrierCheckpoint,
                           now: float) -> None:
        """One participant joins the barrier checkpoint (at its arrival)."""
        scheme = self.scheme
        machine = scheme.machine
        if core.pid in barck.members:
            return
        # A still-draining previous checkpoint must complete before the
        # core can accept a new checkpoint request (Section 4.1) — even
        # one that wrote back no lines: its snapshot closes only then.
        if core.delayed_ckpt_id is not None:
            machine.complete_drain(core.pid, core.delayed_ckpt_id, now)
        dep_file = scheme.files[core.pid]
        snap = core.take_snapshot(
            now, overhead_mark=scheme._net_overhead_charged(core))
        machine.log.mark_begin(now, core.pid, snap.ckpt_id)
        n_lines = machine.engine.mark_delayed(core.pid)
        core.pending_delayed = n_lines
        core.delayed_ckpt_id = snap.ckpt_id
        if n_lines > 0:
            machine.channels.bg_start()
        dep_file.force_open(now)
        core.instr_since_ckpt = 0
        barck.members[core.pid] = (snap.ckpt_id, n_lines, now)

    # ------------------------------------------------------------------
    def release_gate(self, barrier: "BarrierState", now: float) -> float:
        """All arrived: finish the drains, then allow the flag write.

        Per-participant writeback completion is ``max(arrival, BarCK time
        + drain)`` — the drain overlaps either the spin or the remaining
        pre-barrier execution (Figure 4.2c).
        """
        scheme = self.scheme
        machine = scheme.machine
        barck = self.pending.pop(barrier.barrier_id, None)
        if barck is None or not barck.members:
            return now
        config = scheme.config
        t_barck = barck.time
        release = now
        dirty_total = 0
        gate = not scheme.use_dwb
        for pid, (ckpt_id, n_lines, start) in barck.members.items():
            core = machine.cores[pid]
            drain = machine.channels.bg_drain_time(n_lines,
                                                   config.dwb_drain_period)
            completion = max(start, t_barck + drain)
            machine.channels.bg_account(start, n_lines,
                                        max(1.0, completion - start))
            core.ckpt_busy_until = max(core.ckpt_busy_until, completion)
            dirty_total += n_lines
            if gate:
                # Without delayed-writeback hardware the flag write must
                # wait for every participant's writebacks — they hide
                # behind the spin / remaining execution (Figure 4.2c).
                machine.complete_drain(pid, ckpt_id, completion)
                release = max(release, completion)
            else:
                # With DWB support the drain keeps running past the
                # barrier, exactly like an interval checkpoint's.
                machine.push_drain(completion, pid, ckpt_id)
        release += config.sync_cycles
        machine.stats.checkpoints.append(CheckpointEvent(
            time=t_barck, initiator=barck.initiator,
            kind="barrier", size=len(barck.members),
            genuine_size=len(barck.members),
            dirty_lines=dirty_total, duration=release - t_barck))
        # The visible critical-path extension lands on the last arriver.
        machine.cores[barrier.arrived[-1]].charge_stall(
            "wb_imbalance", now, release)
        return release
