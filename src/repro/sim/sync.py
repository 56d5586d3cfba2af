"""Locks and barriers built on coherent memory accesses.

Synchronization is implemented with ordinary loads/stores on dedicated
cache lines, so the directory's LW-ID field and the Dep registers observe
the dependences it creates — exactly the property the paper exploits:
lock hand-offs chain producer->consumer through the lock word, and a
barrier's count/flag lines chain *all* participants together, which is
why barriers induce global interaction sets (Figure 4.2b) and why the
BarCK optimization exists.

The manager also knows how to repair its state when a set of processors
rolls back (locks re-granted from checkpoint snapshots, barrier
generations regressed); see :meth:`SyncManager.rollback_cleanup`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cores import Core, CoreSnapshot
    from repro.sim.machine import Machine


class LockState:
    """A test-and-set lock on one cache line."""

    __slots__ = ("lock_id", "line", "holder", "queue")

    def __init__(self, lock_id: int, line: int):
        self.lock_id = lock_id
        self.line = line
        self.holder: Optional[int] = None
        self.queue: deque[int] = deque()


class BarrierState:
    """A sense-reversing barrier: count line + flag line."""

    __slots__ = ("barrier_id", "participants", "count_line", "flag_line",
                 "arrived", "arrival_times", "gen", "barck_pending",
                 "barck_initiator", "barck_time", "barck_members")

    def __init__(self, barrier_id: int, participants: list[int],
                 count_line: int, flag_line: int):
        self.barrier_id = barrier_id
        self.participants = list(participants)
        self.count_line = count_line
        self.flag_line = flag_line
        self.arrived: list[int] = []
        self.arrival_times: dict[int, float] = {}
        self.gen = 0
        # Barrier-optimization state (Section 4.2.1).
        self.barck_pending = False
        self.barck_initiator: Optional[int] = None
        self.barck_time = 0.0
        self.barck_members: dict[int, tuple] = {}

    @property
    def n(self) -> int:
        return len(self.participants)


class SyncManager:
    """Owns all lock/barrier state for one machine."""

    def __init__(self):
        self.locks: dict[int, LockState] = {}
        self.barriers: dict[int, BarrierState] = {}
        self.lock_acquisitions = 0
        self.barrier_episodes = 0

    def add_lock(self, lock_id: int, line: int) -> LockState:
        lock = LockState(lock_id, line)
        self.locks[lock_id] = lock
        return lock

    def add_barrier(self, barrier_id: int, participants: list[int],
                    count_line: int, flag_line: int) -> BarrierState:
        barrier = BarrierState(barrier_id, participants, count_line,
                               flag_line)
        self.barriers[barrier_id] = barrier
        return barrier

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
            core.held_locks.add(lock_id)
            self.lock_acquisitions += 1
            return now + latency
        lock.queue.append(core.pid)
        core.blocked = "lock"
        core.block_site = lock_id
        core.block_start = now
        core.time = now
        return None

    def lock_release(self, machine: "Machine", core: "Core", lock_id: int,
                     now: float) -> float:
        """Release; hands the lock to the next waiter (FIFO)."""
        lock = self.locks[lock_id]
        assert lock.holder == core.pid, "unlock by non-holder"
        latency = machine.engine.store(core.pid, lock.line,
                                       core.next_store_value(), now)
        core.instr_count += 1
        core.instr_since_ckpt += 1
        lock.holder = None
        core.held_locks.discard(lock_id)
        done = now + latency
        self._grant_next(machine, lock, done)
        return done

    def _grant_next(self, machine: "Machine", lock: LockState,
                    now: float) -> None:
        while lock.queue and lock.holder is None:
            pid = lock.queue.popleft()
            waiter = machine.cores[pid]
            if waiter.blocked != "lock" or waiter.block_site != lock.lock_id:
                continue  # stale queue entry (e.g. after a rollback)
            # The waiter's test&set reads the releaser's store: this is
            # the RAW dependence that puts lock-passing in the ICHK.
            latency = self._rmw(machine, waiter, lock.line, now)
            lock.holder = pid
            waiter.held_locks.add(lock.lock_id)
            waiter.stats.sync_wait += max(0.0, now - waiter.block_start)
            waiter.blocked = None
            waiter.block_site = None
            waiter.time = now + latency
            waiter.ip += 1  # past the LOCK record it blocked on
            self.lock_acquisitions += 1
            machine.push_core(waiter)

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

    # ------------------------------------------------------------------
    # barrier operations
    # ------------------------------------------------------------------
    def barrier_arrive(self, machine: "Machine", core: "Core",
                       barrier_id: int, now: float) -> Optional[float]:
        """Arrive at a barrier; returns crossing time or None (blocked)."""
        barrier = self.barriers[barrier_id]
        crossed = core.barrier_crossings.get(barrier_id, 0)
        if crossed < barrier.gen:
            # A rolled-back straggler re-arriving at a generation that
            # already released: the flag is set in memory, so it simply
            # observes it (re-recording the dependence on the writer)
            # and passes through — no second release is needed.
            latency = machine.engine.load(core.pid, barrier.flag_line, now)
            core.instr_count += 1
            core.instr_since_ckpt += 1
            core.busy += latency
            core.barrier_crossings[barrier_id] = crossed + 1
            return now + latency
        # Update critical section: serialized RMW on the count line.
        # Consecutive arrivals chain WAW dependences through this line.
        latency = self._rmw(machine, core, barrier.count_line, now)
        t_arrived = now + latency
        barrier.arrived.append(core.pid)
        barrier.arrival_times[core.pid] = t_arrived
        is_last = len(barrier.arrived) == barrier.n
        machine.scheme.on_barrier_update(core, barrier, t_arrived, is_last)
        if not is_last:
            core.blocked = "barrier"
            core.block_site = barrier_id
            core.block_start = t_arrived
            core.time = t_arrived
            return None
        return self._release(machine, core, barrier, t_arrived)

    def _release(self, machine: "Machine", last: "Core",
                 barrier: BarrierState, now: float) -> float:
        """Last arrival: (optionally checkpoint), set flag, wake spinners."""
        self.barrier_episodes += 1
        # The BarCK checkpoint completes before the flag may be written
        # (Section 4.2.1); the gate returns when the flag write may start.
        flag_time = machine.scheme.barrier_release_gate(barrier, now)
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
            waiter.stats.sync_wait += max(0.0, release - waiter.block_start)
            waiter.blocked = None
            waiter.block_site = None
            waiter.time = release + spin_latency
            waiter.ip += 1  # past the BARRIER record it blocked on
            waiter.barrier_crossings[barrier.barrier_id] = \
                waiter.barrier_crossings.get(barrier.barrier_id, 0) + 1
            machine.push_core(waiter)
        last.barrier_crossings[barrier.barrier_id] = \
            last.barrier_crossings.get(barrier.barrier_id, 0) + 1
        last.stats.sync_wait += max(0.0, release - now)
        barrier.arrived.clear()
        barrier.arrival_times.clear()
        barrier.gen += 1
        barrier.barck_pending = False
        barrier.barck_initiator = None
        barrier.barck_members.clear()
        return release

    # ------------------------------------------------------------------
    # rollback repair
    # ------------------------------------------------------------------
    def rollback_cleanup(self, machine: "Machine", members: set[int],
                         snapshots: dict[int, "CoreSnapshot"],
                         now: float) -> None:
        """Re-derive lock/barrier state after ``members`` rolled back.

        Lock ownership is restored from each member's checkpoint snapshot
        (the snapshot records which locks were held — i.e. the restored
        memory image shows the lock word taken).  Barrier generations
        regress to the minimum crossing count among participants; the
        Appendix A consistency argument guarantees participants roll back
        past a barrier release together.
        """
        for lock in self.locks.values():
            lock.queue = deque(p for p in lock.queue if p not in members)
            if lock.holder in members:
                held = lock.lock_id in snapshots[lock.holder].held_locks
                if not held:
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
                barrier.arrival_times.pop(pid, None)
            crossings = []
            for pid in barrier.participants:
                core = machine.cores[pid]
                crossings.append(
                    core.barrier_crossings.get(barrier.barrier_id, 0))
            # A generation regresses only if *everyone* rolled back past
            # its release; lone stragglers catch up through the
            # pass-through path in barrier_arrive instead.
            barrier.gen = max(crossings) if crossings else 0
            barrier.barck_pending = False
            barrier.barck_initiator = None
            barrier.barck_members.clear()
