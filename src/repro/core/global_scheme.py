"""Global checkpointing baseline (ReVive-style) and Global_DWB.

All processors checkpoint together at every checkpoint interval: an
interrupt stops everyone, they synchronize, write back every dirty line
(logging old values), synchronize again and resume (Chapter 5).  On a
fault, *all* processors roll back to the last global checkpoint — the
work-wasted and burst-writeback costs that motivate Rebound.

``Global_DWB`` adds the delayed-writebacks optimization: processors
resume right after the first sync and the dirty lines drain in the
background.  The paper shows this alone is not enough (Section 6.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.scheme_base import BaseScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cores import Core
    from repro.sim.machine import Machine


class GlobalScheme(BaseScheme):
    """System-wide checkpoints; no dependence tracking hardware."""

    enabled = False

    #: Fault-free Global execution never consults L: the detection
    #: latency is only read during recovery (``handle_fault`` →
    #: ``latest_safe_snapshot``), lazily through ``self.config``, so a
    #: detection-latency sweep shares one fault-free leader prefix.
    FAULT_FREE_INVARIANT_OVERRIDES = frozenset({"detection_latency"})

    #: The compiled core reads each core's interval from its row.
    NATIVE_HOOKS = "global"

    def __init__(self, machine: "Machine"):
        super().__init__(machine)
        self.global_busy_until = 0.0

    def attach(self, machine: "Machine") -> None:
        # Per-core interval counter ("epoch", ``core.interval``):
        # checkpoint k closes epoch k.
        for core in machine.cores:
            core.interval = 1

    @property
    def epochs(self) -> list[int]:
        """Every core's epoch."""
        return [core.interval for core in self.machine.cores]

    # -- interval bookkeeping -------------------------------------------------
    def interval_of(self, pid: int) -> int:
        return self.machine.cores[pid].interval

    def delayed_interval_of(self, pid: int) -> int:
        core = self.machine.cores[pid]
        if core.delayed_ckpt_id is not None:
            return core.delayed_ckpt_id
        return core.interval

    def _rotate(self, pid: int, now: float) -> None:
        super()._rotate(pid, now)
        self.machine.cores[pid].interval += 1

    def _drop_dep_state(self, pid: int, ckpt_id: int, now: float) -> None:
        # Epoch numbering rewinds with the checkpoint ids so re-executed
        # intervals tag their log entries consistently.
        self.machine.cores[pid].interval = ckpt_id + 1

    # -- policy ------------------------------------------------------------------
    def post_op(self, core: "Core", now: float) -> None:
        if core.instr_since_ckpt < self.config.checkpoint_interval:
            return
        if now < self.global_busy_until:
            return
        self._global_checkpoint(core, now, kind="global")

    def on_output(self, core: "Core", now: float) -> Optional[float]:
        if now < self.global_busy_until:
            # Previous delayed drain still in flight: hurry it, retry.
            self.nacks += 1
            for other in self.machine.cores:
                self.accelerate_drain(other, now)
            wake = min(self.global_busy_until,
                       now + self.config.backoff_max)
            self._charge_backoff(core, now, wake)
            core.not_before = max(core.not_before, wake)
            return None
        return self._global_checkpoint(core, now, kind="io")

    def _global_checkpoint(self, initiator: "Core", now: float,
                           kind: str) -> float:
        members = list(self.machine.cores)
        resume = self._execute_checkpoint(members, now, kind=kind,
                                          initiator=initiator.pid)
        self.global_busy_until = max(
            c.ckpt_busy_until for c in self.machine.cores)
        return resume

    # -- recovery ------------------------------------------------------------------
    def handle_fault(self, pid: int, detect_time: float) -> None:
        """Roll back every processor to the last safe global checkpoint."""
        targets = {}
        for core in self.machine.cores:
            targets[core.pid] = core.latest_safe_snapshot(
                detect_time, self.config.detection_latency)
        self._execute_rollback(targets, detect_time, initiator=pid,
                               protocol_hops=2)
        self.global_busy_until = 0.0
