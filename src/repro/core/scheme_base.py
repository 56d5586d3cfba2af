"""Scheme framework: shared checkpoint/rollback execution machinery.

A *scheme* implements a checkpointing policy (who checkpoints with whom,
and when) on top of shared mechanics: stopping a set of processors,
writing their dirty lines back (stalling burst or background delayed
writebacks, Section 4.1), logging, snapshotting register state, and the
dual rollback machinery (invalidate, undo the log, rewind, re-execute).

Concrete policies: :class:`repro.core.global_scheme.GlobalScheme`
(ReVive-like) and :class:`repro.core.rebound_scheme.ReboundScheme`.

The member steps of a built-in scheme's checkpoint run in the compiled
core: :meth:`BaseScheme._execute_checkpoint` makes one call
(``CompiledEngine.checkpoint``, ``mem_checkpoint`` in ``memsys.c``) for
all members.  Every delayed drain's completion, whoever starts it, is
an ``EV_DRAIN (pid, ckpt_id)`` queue entry
(``Machine.push_drain``), and a drain completed at once goes through
``Machine.complete_drain``; the machine, not the scheme, picks who
completes it (the compiled core's ``mem_drain`` for a native scheme,
:meth:`BaseScheme._complete_drain` otherwise).  A drain's interval is
its checkpoint id.  Which members, when and what the
:class:`~repro.sim.stats.CheckpointEvent` says stay here, as does every
rollback.  The Python bodies below are the reference: machines on the
oracle memory system run them, and so does any class that overrides a
member hook (:data:`MEMBER_HOOKS`, :func:`native_checkpoints`).
"""

from __future__ import annotations

import functools
import random
from typing import TYPE_CHECKING, Optional

from repro.backref import backref
from repro.coherence.core import lib
from repro.coherence.protocol import DependenceTracker, overrides
from repro.interconnect import MessageClass
from repro.sim.stats import CheckpointEvent, RollbackEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cores import Core, CoreSnapshot
    from repro.sim.machine import Machine


#: The barrier hooks (``barrier_hooks_act``).
BARRIER_HOOKS = ("on_barrier_update", "barrier_release_gate")

#: What a checkpoint runs on each member: a built-in scheme class that
#: overrides none of these checkpoints in the compiled core (one that
#: overrides an interval hook, ``interval_of`` or
#: ``delayed_interval_of``, already runs none of the core's hooks).
MEMBER_HOOKS = ("_execute_checkpoint", "_checkpoint_members",
                "_closed_interval_of", "_rotate",
                "_mark_interval_complete", "_net_overhead_charged",
                "_release_member", "_start_drain", "_complete_drain")

#: The compiled core's hook modes whose checkpoints it runs.
_NATIVE_MODES = (lib.HOOKS_GLOBAL, lib.HOOKS_REBOUND)

@functools.cache
def native_checkpoints(cls: type) -> bool:
    """Whether scheme class ``cls`` checkpoints in the compiled core
    (decided once per class): it inherits a built-in ``NATIVE_HOOKS``
    scheme and overrides none of :data:`MEMBER_HOOKS` (NONE inherits
    only the tracker's)."""
    base = next((k for k in cls.__mro__ if "NATIVE_HOOKS" in vars(k)), None)
    return (base is not None and issubclass(base, BaseScheme) and
            not overrides(cls, base, MEMBER_HOOKS))


class BaseScheme(DependenceTracker):
    """Common skeleton; concrete schemes override the policy hooks."""

    enabled = False  # LW-ID / Dep register tracking off by default

    #: Config fields this scheme's **fault-free** execution provably
    #: never reads: two runs whose configs differ only here are
    #: bit-identical until their first fault is detected, so the
    #: engine's replica-batch planner may group them under one leader
    #: (``ExperimentEngine._batch_key``) — e.g. a whole
    #: ``fig_l_sensitivity`` detection-latency sweep rides one trace
    #: pass.  A declared field must only be consumed lazily through
    #: ``machine.config``/``scheme.config`` (see
    #: ``Machine.rebind_config``).  The conservative default is empty;
    #: Rebound cannot declare ``detection_latency`` because dep-register
    #: recycling (``DepRegisterFile.can_open_interval``) reads L during
    #: fault-free checkpointing.
    FAULT_FREE_INVARIANT_OVERRIDES: frozenset = frozenset()

    #: The machine (weak: the machine owns the scheme).
    machine = backref()

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.config = machine.config
        self.rng = random.Random(machine.config.seed)
        self.busy_retries = 0
        self.declines = 0
        self.nacks = 0

    @property
    def use_dwb(self) -> bool:
        """Whether checkpoints drain their lines in the background: read
        off ``config.scheme`` each time, so a fork re-pointed at the
        other member of a prefix family (``Machine.rebind_config``)
        checkpoints as that member."""
        return self.config.scheme.delayed_writebacks

    def attach(self, machine: "Machine") -> None:
        """Called once the machine is fully constructed."""

    def _native(self) -> bool:
        """Whether this scheme's checkpoints and drains run in the
        compiled core: a native class on a core running its hooks (an
        oracle machine's engine has none).  The machine reads it once
        for its drains (``Machine._gate_scheme``)."""
        return (native_checkpoints(type(self)) and
                getattr(self.machine.engine, "hooks", None) in _NATIVE_MODES)

    # -- policy hooks (overridden by concrete schemes) -----------------------
    def post_op_gate(self) -> float:
        """Minimum ``core.instr_since_ckpt`` at which ``post_op`` can
        act; the machine's hot loop skips the call below it.  The
        default matches both built-in schemes' first-line guard.  A
        scheme whose ``post_op`` must act earlier (adaptive intervals,
        pressure-triggered checkpoints, ...) overrides this — return 0
        to be called after every record."""
        return self.config.checkpoint_interval

    def post_op(self, core: "Core", now: float) -> None:
        """Called after a trace record; decides checkpoint initiation.

        Only invoked once ``core.instr_since_ckpt`` reaches
        :meth:`post_op_gate`; override that alongside this when acting
        below a full checkpoint interval."""

    def on_output(self, core: "Core", now: float) -> Optional[float]:
        """Checkpoint before output I/O; returns commit time or None to
        retry later (the core's ``not_before`` must then be set)."""
        return now

    def on_barrier_update(self, core: "Core", barrier, now: float,
                          is_last: bool) -> None:
        """A processor completed a barrier's Update section (Sec 4.2.1)."""

    def barrier_release_gate(self, barrier, now: float) -> float:
        """Last chance to delay the barrier flag write (BarCK)."""
        return now

    def barrier_hooks_act(self) -> bool:
        """Whether the two barrier hooks above can act.  When they
        cannot, the compiled machine loop runs BARRIER records without
        calling them.  These do nothing; a subclass overriding either
        is called."""
        return overrides(type(self), BaseScheme, BARRIER_HOOKS)

    def on_core_done(self, core: "Core", now: float) -> None:
        """A core finished its trace."""

    def handle_fault(self, pid: int, detect_time: float) -> None:
        raise RuntimeError(
            f"fault detected on core {pid} but scheme "
            f"{self.config.scheme.value} has no recovery support")

    def finalize(self, stats) -> None:
        stats.busy_retries = self.busy_retries
        stats.declines = self.declines
        stats.nacks = self.nacks

    # -- interval bookkeeping hooks -------------------------------------------
    def _closed_interval_of(self, pid: int) -> int:
        """Interval a checkpoint of ``pid`` would close (== snapshot id)."""
        return self.interval_of(pid)

    def _rotate(self, pid: int, now: float) -> None:
        """Open a new interval on ``pid`` (Dep set / epoch rotation).

        Overrides must call ``super()._rotate(pid, now)``: the interval
        advance (WSIG epoch) is one of the residency events
        :meth:`CoherenceEngine.fastpath_epoch` counts into
        ``SimStats.fastpath_epoch_bumps``.  Cache and directory state
        changes only inside the coherence engine; the compiled engine
        exposes no cache or directory handles to poke.
        """
        self.machine.engine.fastpath_epoch(pid)

    def _mark_interval_complete(self, pid: int, interval: int,
                                now: float) -> None:
        """Interval ``interval``'s checkpoint writebacks completed."""

    # ------------------------------------------------------------------
    # checkpoint execution (shared by Global and Rebound)
    # ------------------------------------------------------------------
    def _execute_checkpoint(self, members: list["Core"], now: float,
                            kind: str, initiator: int,
                            genuine_size: Optional[int] = None) -> float:
        """Checkpoint ``members`` together; returns their resume time.

        With delayed writebacks the members resume right after the
        coordination sync and the dirty lines drain in the background
        (Figure 4.1b); otherwise they stall until every member's burst
        writeback completes (Figure 4.1a).  A native scheme
        (:meth:`_native`) runs the member steps in one call to the
        compiled core, the others :meth:`_checkpoint_members`.
        """
        machine = self.machine
        if self._native():
            resume, duration, dirty_total = machine.engine.checkpoint(
                machine.loop, [core.pid for core in members], now,
                self.use_dwb, self.config)
            sends = 1 if self.use_dwb else 2
            machine.network.send(MessageClass.PROTOCOL,
                                 sends * 2 * len(members))
        else:
            resume, duration, dirty_total = self._checkpoint_members(
                members, now)
        machine.stats.checkpoints.append(CheckpointEvent(
            time=now, initiator=initiator, kind=kind, size=len(members),
            genuine_size=(genuine_size if genuine_size is not None
                          else len(members)),
            dirty_lines=dirty_total, duration=duration))
        return resume

    def _checkpoint_members(self, members: list["Core"],
                            now: float) -> tuple[float, float, int]:
        """The member steps of a checkpoint, in Python (the reference
        for ``mem_checkpoint``): returns the resume time, the duration
        and the lines written back."""
        machine = self.machine
        config = self.config
        # Cross-processor interrupts to stop everyone, then a sync.
        stops = {}
        for core in members:
            stop = now + config.msg_cycles
            if core.blocked is None:
                stop = max(stop, core.time)
            stops[core.pid] = stop
        machine.network.send(MessageClass.PROTOCOL, 2 * len(members))
        t_sync = max(stops.values()) + config.sync_cycles
        for core in members:
            core.charge_stall("ckpt_sync", stops[core.pid], t_sync)
        dirty_total = 0
        if not self.use_dwb:
            completions = {}
            intervals = {}
            for core in sorted(members, key=lambda c: c.pid):
                intervals[core.pid] = self._closed_interval_of(core.pid)
                snap = core.take_snapshot(
                    t_sync, overhead_mark=self._net_overhead_charged(core))
                machine.log.mark_begin(t_sync, core.pid, snap.ckpt_id)
                done, n_lines = machine.engine.checkpoint_writeback(
                    core.pid, t_sync)
                dirty_total += n_lines
                completions[core.pid] = done
            t_end = max(completions.values()) + config.sync_cycles
            machine.network.send(MessageClass.PROTOCOL, 2 * len(members))
            for core in members:
                interval = intervals[core.pid]
                snap = core.snapshots[-1]
                machine.log.mark_end(t_end, core.pid, snap.ckpt_id)
                machine.memory.end_interval(core.pid, interval)
                self._rotate(core.pid, t_end)
                self._mark_interval_complete(core.pid, interval, t_end)
                core.instr_since_ckpt = 0
                core.charge_stall("wb_delay", t_sync, completions[core.pid])
                core.charge_stall("wb_imbalance", completions[core.pid],
                                  t_end)
                snap.complete_time = t_end
                self._release_member(core, t_end)
            resume = t_end
            duration = t_end - now
        else:
            max_completion = t_sync
            for core in sorted(members, key=lambda c: c.pid):
                snap = core.take_snapshot(
                    t_sync, overhead_mark=self._net_overhead_charged(core))
                machine.log.mark_begin(t_sync, core.pid, snap.ckpt_id)
                n_lines = machine.engine.mark_delayed(core.pid)
                dirty_total += n_lines
                completion = self._start_drain(core, snap, n_lines, t_sync)
                max_completion = max(max_completion, completion)
                self._release_member(core, t_sync)
            resume = t_sync
            duration = max_completion - now
        return resume, duration, dirty_total

    def _release_member(self, core: "Core", resume: float) -> None:
        core.not_before = max(core.not_before, resume)
        core.ckpt_busy_until = max(core.ckpt_busy_until, resume)

    def _net_overhead_charged(self, core: "Core") -> float:
        """Cumulative net checkpoint-overhead cycles charged to
        ``core`` so far — the single source for snapshot reclaim marks
        and the rollback reclaim.  ``ipc_delay`` is only folded into
        ``CoreStats`` at finalize, so the live engine counter stands in
        for it here."""
        stats = core.stats
        return (stats.ckpt_overhead_cycles - stats.ipc_delay +
                self.machine.engine.ckpt_wait[core.pid])

    def _charge_backoff(self, core: "Core", now: float,
                        until: float) -> None:
        """Attribute a checkpoint-protocol retry/back-off wait ending at
        ``until`` to the overhead bucket.  Called *before* the caller
        raises ``core.not_before``: only the part of the wait that
        actually extends the core's existing stall floor is new overhead
        (re-charging an already-counted window would double-book it)."""
        core.charge_stall("ckpt_backoff", max(now, core.not_before), until)

    def _start_drain(self, core: "Core", snap, n_lines: int,
                     t_sync: float) -> float:
        """Kick off a background drain; returns its completion time."""
        machine = self.machine
        config = self.config
        drain = machine.channels.bg_drain_time(n_lines,
                                               config.dwb_drain_period)
        completion = t_sync + drain
        core.pending_delayed = n_lines
        core.delayed_ckpt_id = snap.ckpt_id
        core.ckpt_busy_until = max(core.ckpt_busy_until, completion)
        if n_lines > 0:
            machine.channels.bg_start()
            machine.channels.bg_account(t_sync, n_lines, drain)
        self._rotate(core.pid, t_sync)
        core.instr_since_ckpt = 0
        machine.push_drain(completion, core.pid, snap.ckpt_id)
        return completion

    def _complete_drain(self, pid: int, ckpt_id: int, t: float) -> None:
        """Finalize a delayed-writeback checkpoint (possibly early): the
        reference for ``mem_drain``.  Its lines are logged under the
        checkpoint's interval, which is ``ckpt_id``."""
        machine = self.machine
        core = machine.cores[pid]
        if core.delayed_ckpt_id != ckpt_id:
            return  # rolled back, or already completed by acceleration
        machine.engine.complete_delayed(pid, t, ckpt_id)
        machine.log.mark_end(t, pid, ckpt_id)
        machine.memory.end_interval(pid, ckpt_id)
        try:
            snap = core.snapshot_for(ckpt_id)
            snap.complete_time = t
        except KeyError:
            pass
        self._mark_interval_complete(pid, ckpt_id, t)
        if core.pending_delayed > 0:
            machine.channels.bg_stop()
        core.pending_delayed = 0
        core.delayed_ckpt_id = None
        core.ckpt_busy_until = min(core.ckpt_busy_until, t)

    def accelerate_drain(self, core: "Core", now: float) -> None:
        """Hurry a pending drain after a Nack (Section 4.1)."""
        if core.delayed_ckpt_id is None or core.pending_delayed == 0:
            return
        fast = now + core.pending_delayed * self.config.dwb_fast_period
        if fast < core.ckpt_busy_until:
            core.ckpt_busy_until = fast
            self.machine.push_drain(fast, core.pid, core.delayed_ckpt_id)

    # ------------------------------------------------------------------
    # rollback execution (shared by Global and Rebound)
    # ------------------------------------------------------------------
    def _execute_rollback(self, targets: dict[int, "CoreSnapshot"],
                          detect_time: float, initiator: int,
                          protocol_hops: int) -> RollbackEvent:
        """Roll ``targets`` (pid -> snapshot) back together.

        Invalidates the members' caches, undoes their log entries newest
        first, rewinds the cores and repairs lock/barrier state; the
        members then re-execute the lost work (Section 3.3.5).
        """
        machine = self.machine
        config = self.config
        members = set(targets)
        machine.network.send(MessageClass.PROTOCOL,
                             2 * max(1, len(members)))
        t0 = detect_time + config.msg_cycles * max(1, protocol_hops)
        max_depth = 0
        wasted = 0.0
        for pid, snap in targets.items():
            core = machine.cores[pid]
            depth = core.snapshots_after(snap.ckpt_id) + 1
            max_depth = max(max_depth, depth)
            if core.pending_delayed > 0:
                machine.channels.bg_stop()
                core.pending_delayed = 0
            machine.engine.invalidate_core(pid)
        restore_targets = {pid: snap.ckpt_id
                           for pid, snap in targets.items()}
        entries = machine.memory.restore(restore_targets)
        if config.check_coherence:
            for entry in entries:
                machine.engine.golden[entry.addr] = entry.old_value
        restore_done = machine.channels.restore(t0, len(entries))
        resume = restore_done + config.sync_cycles
        for pid, snap in targets.items():
            core = machine.cores[pid]
            if core.done:
                core.stats.end_time = 0.0
                machine._n_done -= 1
            span = core.rollback_to(snap, resume, detect_time)
            wasted += span
            # A member's in-flight stall window ends at the fault: the
            # recovery bucket owns the core from detection on, so the
            # pre-charged tail past detect_time is refunded (and must
            # not feed the reclaim below either).
            core.truncate_stalls(detect_time)
            # Useful-work buckets: the discarded span contains checkpoint
            # stalls that are already charged to the overhead bucket, so
            # the waste bucket only takes the remainder.  Only overhead
            # accrued after the span's *start* — the later of the target
            # snapshot (its overhead_mark) and the previous rollback's
            # reclaim mark — is reclassified out (clamped to the span),
            # so pre-snapshot overhead can never zero out genuinely
            # discarded work, and no cycle lands in two buckets.
            # RollbackEvent.wasted_cycles stays the gross span (the
            # paper-facing work-lost metric is unchanged).
            overhead_now = self._net_overhead_charged(core)
            baseline = max(core.overhead_reclaim_mark,
                           snap.overhead_mark)
            reclaim = min(span, max(0.0, overhead_now - baseline))
            core.overhead_reclaim_mark = overhead_now
            stats = core.stats
            stats.rollback_waste += span - reclaim
            # Recovery windows of back-to-back faults overlap; count
            # each wall-clock cycle of recovery at most once per core.
            stats.recovery += max(0.0, resume -
                                  max(detect_time, core.recovery_until))
            core.recovery_until = max(core.recovery_until, resume)
            self._drop_dep_state(pid, snap.ckpt_id, resume)
        machine.sync.rollback_cleanup(machine, members, targets, resume)
        for pid in targets:
            machine.push_core(machine.cores[pid])
        event = RollbackEvent(
            detect_time=detect_time, initiator=initiator,
            size=len(members), latency=resume - detect_time,
            log_entries=len(entries), max_depth=max_depth,
            wasted_cycles=wasted)
        machine.stats.rollbacks.append(event)
        return event

    def _drop_dep_state(self, pid: int, ckpt_id: int, now: float) -> None:
        """Clear dependence state of rolled-back intervals (hook)."""


class NoCheckpointScheme(BaseScheme):
    """Baseline with checkpointing disabled (overhead reference runs)."""

    #: No checkpoints, no recovery: the detection latency is never read.
    FAULT_FREE_INVARIANT_OVERRIDES = frozenset({"detection_latency"})
