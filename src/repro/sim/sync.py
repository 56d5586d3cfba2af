"""Locks and barriers built on coherent memory accesses.

Synchronization is implemented with ordinary loads/stores on dedicated
cache lines, so the directory's LW-ID field and the Dep registers observe
the dependences it creates — exactly the property the paper exploits:
lock hand-offs chain producer->consumer through the lock word, and a
barrier's count/flag lines chain *all* participants together, which is
why barriers induce global interaction sets (Figure 4.2b) and why the
BarCK optimization exists.

The state lives in the machine loop (``mem_loop_t``, ``memsys.c``):
:class:`LockState` and :class:`BarrierState` are ``ctypes`` views of its
rows, and a fork clones them with it.  ``mem_advance`` executes LOCK and
UNLOCK records, and BARRIER records unless the scheme's hooks can act;
then :meth:`SyncManager.barrier_arrive` calls them between the C
primitives.  The Python code is the reference oracle machines run.
:meth:`SyncManager.rollback_cleanup` repairs the state on a rollback.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, Optional

from repro.coherence.core import lib, row_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cores import Core, CoreSnapshot, CoreTable
    from repro.sim.machine import Machine


def optional_field(name: str) -> property:
    """A row field whose -1 reads as None."""
    return property(
        lambda self: None if getattr(self, name) < 0 else getattr(self, name),
        lambda self, value: setattr(self, name, -1 if value is None else value))


def _pid_list(row: str, count: str) -> property:
    """The pids in the first ``count`` entries of the view's ``row``."""
    def store(self, pids: list[int]) -> None:
        getattr(self, row)[:len(pids)] = pids
        setattr(self, count, len(pids))
    return property(lambda self: getattr(self, row)[:getattr(self, count)],
                    store)


class LockState(ctypes.Structure):
    """A test-and-set lock on one cache line (its ``mem_lock_t`` row);
    ``queue`` lists the waiting pids, first in line first."""

    _fields_ = row_fields("mem_lock_t", {"holder", "waiting"})
    holder = optional_field("_holder")
    queue = _pid_list("_waiting", "n_waiting")


class BarrierState(ctypes.Structure):
    """A sense-reversing barrier: count line + flag line (its
    ``mem_barrier_t`` row); ``crossed[pid]`` counts crossings."""

    _fields_ = row_fields("mem_barrier_t", {"parts", "arrived"})
    participants = _pid_list("_parts", "n")
    arrived = _pid_list("_arrived", "n_arrived")


class SyncManager:
    """All lock/barrier state of one machine: views of its loop's."""

    def __init__(self, table: "CoreTable"):
        self._t = table

    locks = property(lambda self: self._t.locks)
    barriers = property(lambda self: self._t.barriers)
    lock_acquisitions = property(lambda self: self._t.c.lock_acquisitions)
    barrier_episodes = property(lambda self: self._t.c.barrier_episodes)

    # ------------------------------------------------------------------
    # lock operations
    # ------------------------------------------------------------------
    def lock_acquire(self, machine: "Machine", core: "Core", lock_id: int,
                     now: float) -> Optional[float]:
        """Try to take the lock; returns completion time or None (blocked)."""
        lock = self.locks[lock_id]
        if lock.holder is None:
            latency = self._rmw(machine, core, lock.line, now)
            lock.holder = core.pid
            self._t.c.lock_acquisitions += 1
            return now + latency
        lock.queue = lock.queue + [core.pid]
        self._block(core, "lock", lock_id, now)
        return None

    def lock_release(self, machine: "Machine", core: "Core", lock_id: int,
                     now: float) -> float:
        """Release; hands the lock to the next waiter (FIFO)."""
        lock = self.locks[lock_id]
        if lock.holder != core.pid:  # a malformed trace (checked under -O)
            raise AssertionError("unlock by non-holder")
        latency = machine.engine.store(core.pid, lock.line,
                                       core.next_store_value(), now)
        core.instr_count += 1
        core.instr_since_ckpt += 1
        lock.holder = None
        done = now + latency
        self._grant_next(machine, lock, done)
        return done

    def _grant_next(self, machine: "Machine", lock: LockState,
                    now: float) -> None:
        if hasattr(machine.engine, "advance"):  # compiled: memsys.c's
            machine.engine.sync_grant_next(self._t.c, lock.lock_id, now)
            return
        while lock.queue and lock.holder is None:
            pid, *rest = lock.queue
            lock.queue = rest
            waiter = machine.cores[pid]
            if waiter.blocked != "lock" or waiter.block_site != lock.lock_id:
                continue  # stale queue entry (e.g. after a rollback)
            # The waiter's test&set reads the releaser's store: this is
            # the RAW dependence that puts lock-passing in the ICHK.
            latency = self._rmw(machine, waiter, lock.line, now)
            lock.holder = pid
            self._t.c.lock_acquisitions += 1
            self._wake(machine, waiter, now, now + latency)

    def _rmw(self, machine: "Machine", core: "Core", line: int,
             now: float) -> float:
        """Test&set: load + store on the synchronization line."""
        latency = machine.engine.load(core.pid, line, now)
        latency += machine.engine.store(core.pid, line,
                                        core.next_store_value(),
                                        now + latency)
        core.instr_count += 2
        core.instr_since_ckpt += 2
        core.busy += latency
        return latency

    @staticmethod
    def _block(core: "Core", kind: str, site: int, now: float) -> None:
        core.blocked = kind
        core.block_site = site
        core.block_start = now
        core.time = now

    @staticmethod
    def _wake(machine: "Machine", waiter: "Core", now: float,
              done: float) -> None:
        """``waiter`` waited until ``now``; past its record at ``done``."""
        waiter.sync_wait += max(0.0, now - waiter.block_start)
        waiter.blocked = None
        waiter.block_site = None
        waiter.time = done
        waiter.ip += 1
        machine.push_core(waiter)

    # ------------------------------------------------------------------
    # barrier operations
    # ------------------------------------------------------------------
    def barrier_arrive(self, machine: "Machine", core: "Core",
                       barrier_id: int, now: float) -> Optional[float]:
        """Arrive at a barrier; returns crossing time or None (blocked)."""
        barrier = self.barriers[barrier_id]
        engine, loop = machine.engine, self._t.c
        native = hasattr(engine, "advance")  # compiled: memsys.c's
        code, t = (engine.sync_arrive(loop, core.pid, barrier_id, now)
                   if native else self._arrive(machine, core, barrier, now))
        if code == lib.SYNC_PASSED:
            return t
        is_last = code == lib.SYNC_LAST
        machine.scheme.on_barrier_update(core, barrier, t, is_last)
        if not is_last:
            self._block(core, "barrier", barrier_id, t)
            return None
        # The BarCK checkpoint completes before the flag may be written
        # (Section 4.2.1); the gate returns when the flag write may start.
        flag_time = machine.scheme.barrier_release_gate(barrier, t)
        if native:
            return engine.sync_release(loop, core.pid, barrier_id, t,
                                       flag_time)
        return self._release(machine, core, barrier, t, flag_time)

    def _arrive(self, machine: "Machine", core: "Core",
                barrier: BarrierState, now: float) -> tuple[int, float]:
        """``sync_arrive``: ``(SYNC_*, pass-through or arrival time)``."""
        crossed = barrier.crossed[core.pid]
        if crossed < barrier.gen:
            # A rolled-back straggler re-arriving at a generation that
            # already released: the flag is set in memory, so it simply
            # observes it (re-recording the dependence on the writer)
            # and passes through — no second release is needed.
            latency = machine.engine.load(core.pid, barrier.flag_line, now)
            core.instr_count += 1
            core.instr_since_ckpt += 1
            core.busy += latency
            barrier.crossed[core.pid] = crossed + 1
            return lib.SYNC_PASSED, now + latency
        # Update critical section: serialized RMW on the count line.
        # Consecutive arrivals chain WAW dependences through this line.
        latency = self._rmw(machine, core, barrier.count_line, now)
        barrier.arrived = barrier.arrived + [core.pid]
        return (lib.SYNC_LAST if barrier.n_arrived == barrier.n
                else lib.SYNC_WAIT), now + latency

    def _release(self, machine: "Machine", last: "Core",
                 barrier: BarrierState, now: float,
                 flag_time: float) -> float:
        """``sync_release``: the last arrival sets the flag at
        ``flag_time`` and wakes the spinners; returns the release."""
        self._t.c.barrier_episodes += 1
        latency = machine.engine.store(last.pid, barrier.flag_line,
                                       last.next_store_value(), flag_time)
        last.instr_count += 1
        last.instr_since_ckpt += 1
        release = flag_time + latency
        for pid in barrier.arrived:
            if pid == last.pid:
                continue
            waiter = machine.cores[pid]
            if waiter.blocked != "barrier" or \
                    waiter.block_site != barrier.barrier_id:
                continue
            # Final spin iteration: the read of the flag that observes the
            # release (dependence: flag writer -> every spinner).
            spin_latency = machine.engine.load(pid, barrier.flag_line,
                                               release)
            waiter.instr_count += 1
            waiter.instr_since_ckpt += 1
            barrier.crossed[pid] += 1
            self._wake(machine, waiter, release, release + spin_latency)
        barrier.crossed[last.pid] += 1
        last.sync_wait += max(0.0, release - now)
        barrier.arrived = []
        barrier.gen += 1
        return release

    # ------------------------------------------------------------------
    # rollback repair
    # ------------------------------------------------------------------
    def rollback_cleanup(self, machine: "Machine", members: set[int],
                         snapshots: dict[int, "CoreSnapshot"],
                         now: float) -> None:
        """Re-derive lock/barrier state after ``members`` rolled back.

        Lock ownership and barrier crossings are restored from each
        member's checkpoint snapshot (the snapshot records which locks
        were held — i.e. the restored memory image shows the lock word
        taken).  Barrier generations regress to the highest crossing
        count among participants; the Appendix A consistency argument
        guarantees participants roll back past a barrier release
        together.
        """
        for lock in self.locks.values():
            lock.queue = [p for p in lock.queue if p not in members]
            if lock.holder in members and \
                    lock.lock_id not in snapshots[lock.holder].held_locks:
                lock.holder = None
            for pid in members:
                if lock.lock_id in snapshots[pid].held_locks:
                    assert lock.holder in (None, pid), \
                        "inconsistent recovery line: lock double-held"
                    lock.holder = pid
            if lock.holder is None:
                self._grant_next(machine, lock, now)
        for barrier in self.barriers.values():
            barrier.arrived = [p for p in barrier.arrived
                               if p not in members]
            for pid in members:
                barrier.crossed[pid] = snapshots[pid].barrier_crossings.get(
                    barrier.barrier_id, 0)
            # A generation regresses only if *everyone* rolled back past
            # its release; lone stragglers catch up through the
            # pass-through path in barrier_arrive instead.
            barrier.gen = max((barrier.crossed[pid]
                               for pid in barrier.participants), default=0)
