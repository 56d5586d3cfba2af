"""Per-core simulation state.

A core executes its trace at one instruction per cycle (Figure 4.3a)
plus memory latencies.  It carries the architectural snapshot machinery
used by every checkpointing scheme: at a checkpoint the core's register
state — here, its trace position, instruction counts and held
synchronization state — is saved; a rollback rewinds the core to a
snapshot, after which it re-executes the lost work.

The fields the machine loop touches on every record (trace position,
clock, instruction counts, epoch, store sequence, done/blocked, what a
blocked core waits on and since when, and the ``busy`` and
``sync_wait`` accumulators), those the memory system reads when it
logs a writeback (the Delayed-line drain's ``pending_delayed`` and
``delayed_ckpt_id``, GlobalScheme's ``interval``) and those a
checkpoint writes (the next snapshot id, ``ckpt_busy_until`` and the
:class:`~repro.sim.stats.CoreStats` stall accumulators) live in the
compiled loop's per-core rows (``mem_hot_t`` in ``memsys.c``):
:class:`Core` is a ``ctypes`` structure laid over its row, so the C
code and the Python code around it (schemes, rollback) read and write
the same fields.  The loop also keeps each core's snapshots and stall
windows (``mem_history_t``); :attr:`Core.snapshots` and
:attr:`Core.stall_segments` are views of them.  A snapshot records the
locks the core held and its barrier crossings off the loop's lock and
barrier rows (:mod:`repro.sim.sync`).
"""

from __future__ import annotations

import copy
import ctypes
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.coherence.core import ffi, lib, row_fields
from repro.sim.stats import CoreStats
from repro.sim.sync import BarrierState, LockState, optional_field
from repro.trace import OP_NAMES, CompiledTrace


@dataclass(slots=True)
class CoreSnapshot:
    """Register/context state captured with checkpoint ``ckpt_id``."""

    ckpt_id: int
    trace_ip: int
    instr_count: int
    time: float
    held_locks: frozenset[int]
    barrier_crossings: dict[int, int]
    complete_time: Optional[float] = None   # writebacks (incl. delayed) done
    #: Cumulative net checkpoint-overhead cycles charged to the core
    #: when the snapshot was captured: the reclaim baseline of a
    #: rollback to this snapshot — only overhead charged *after* the
    #: span's start may be reclassified out of rollback waste.
    overhead_mark: float = 0.0


def _row_field(name: str) -> property:
    return property(lambda self: getattr(self._row(), name))


class SnapshotRow(CoreSnapshot):
    """Snapshot ``index`` of core ``pid`` as the loop keeps it (a
    ``mem_snap_t`` row and its lock and barrier state): every field
    reads the row, and ``complete_time`` writes it.  A view names its
    row by position, so it is valid until a rollback drops the
    snapshot."""

    __slots__ = ("_t", "_pid", "_index")

    def __init__(self, table: "CoreTable", pid: int, index: int):
        self._t = table
        self._pid = pid
        self._index = index

    def _row(self):
        return self._t.c.hist[self._pid].rows[self._index]

    def _sync(self):
        c = self._t.c
        return c.hist[self._pid].sync + self._index * c.snap_stride

    ckpt_id = _row_field("ckpt_id")
    trace_ip = _row_field("trace_ip")
    instr_count = _row_field("instr_count")
    time = _row_field("time")
    overhead_mark = _row_field("overhead_mark")

    @property
    def complete_time(self) -> Optional[float]:
        row = self._row()
        return row.complete_time if row.complete else None

    @complete_time.setter
    def complete_time(self, value: Optional[float]) -> None:
        row = self._row()
        row.complete = value is not None
        row.complete_time = 0.0 if value is None else value

    @property
    def held_locks(self) -> frozenset[int]:
        sync = self._sync()
        return frozenset(lock_id for k, lock_id in enumerate(self._t.locks)
                         if sync[k >> 6] >> (k & 63) & 1)

    @property
    def barrier_crossings(self) -> dict[int, int]:
        sync = self._sync() + self._t.c.lock_words
        return {barrier_id: sync[k]
                for k, barrier_id in enumerate(self._t.barriers) if sync[k]}


class _Rows(Sequence):
    """Rows of one kind that the loop keeps for core ``pid``."""

    __slots__ = ("_t", "_pid")

    def __init__(self, table: "CoreTable", pid: int):
        self._t = table
        self._pid = pid

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("row index out of range")
        return self._item(index)


class Snapshots(_Rows):
    """A core's snapshots, oldest first (views of the loop's rows)."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._t.c.hist[self._pid].n

    def _item(self, index: int) -> SnapshotRow:
        return SnapshotRow(self._t, self._pid, index)

    def append(self, snap: SnapshotRow) -> None:
        """Append a copy of ``snap``, a snapshot of the same loop."""
        if lib.loop_snap_copy(self._t.c, self._pid, snap._pid,
                              snap._index) < 0:
            raise MemoryError("cannot grow the snapshot rows")


class StallWindows(_Rows):
    """A core's charged stall windows, ``(start, end)`` tuples in the
    order they were charged (the loop's rows)."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._t.c.hist[self._pid].n_windows

    def _item(self, index: int) -> tuple[float, float]:
        window = self._t.c.hist[self._pid].windows[index]
        return (window.start, window.end)

    def append(self, window: tuple[float, float]) -> None:
        if not lib.loop_window(self._t.c, self._pid, *window):
            raise MemoryError("cannot grow the stall windows")


#: ``mem_advance``'s return reasons, by code (``CoreTable.counters``).
_RETURNS = {getattr(lib, "ADV_" + name.upper()): name for name in (
    "done", "pause", "call", "post_op", "record", "limit", "deadlock",
    "failed")}

#: Why the loop refuses a lock or barrier (``loop_add_*``).
_REFUSED = (f"a negative or duplicate id, a participant that is not a "
            f"core, or over {lib.SYNC_CORES} cores")


class CoreTable:
    """The machine loop's state in C (``mem_loop_t``, ``memsys.c``): the
    event queue, one :class:`Core` row per core, the trace columns, and
    the ``locks`` and ``barriers`` (views by id).

    The trace columns are read in place: the table keeps their buffers
    exported (alive, unresizable) while it lives, and a fork's table
    shares them."""

    __slots__ = ("c", "_keep", "locks", "barriers", "__weakref__")

    def __init__(self, n: int, locks=(), barriers=()):
        self._adopt(lib.loop_new(n, len(locks), len(barriers)))
        self._keep: list = []
        for lock in locks:
            if lib.loop_add_lock(self.c, lock.lock_id, lock.line):
                raise ValueError(f"{lock}: {_REFUSED}")
        for spec in barriers:
            parts = spec.participants
            if lib.loop_add_barrier(self.c, spec.barrier_id, spec.count_line,
                                    spec.flag_line,
                                    ffi.new("int32_t[]", parts), len(parts)):
                raise ValueError(f"{spec}: {_REFUSED}")
        self._views()

    def _adopt(self, raw) -> None:
        if raw == ffi.NULL:
            raise MemoryError("cannot allocate the machine loop")
        self.c = ffi.gc(raw, lib.loop_free)

    def _views(self) -> None:
        """Lay :class:`LockState`/:class:`BarrierState` over the rows (a
        view holds the loop, not the table: that would make a cycle)."""
        locks = [self._view(LockState, self.c.locks + k)
                 for k in range(self.c.n_locks)]
        barriers = [self._view(BarrierState, self.c.barriers + k)
                    for k in range(self.c.n_barriers)]
        self.locks = {lock.lock_id: lock for lock in locks}
        self.barriers = {bar.barrier_id: bar for bar in barriers}

    def _view(self, view, pointer):
        row = view.from_address(int(ffi.cast("uintptr_t", pointer)))
        row._c = self.c     # keeps the row's memory alive
        return row

    def row(self, pid: int) -> int:
        """The address of core ``pid``'s row."""
        if not 0 <= pid < self.c.n:
            raise IndexError(f"core {pid} is not in a table of {self.c.n}")
        return int(ffi.cast("uintptr_t", ffi.addressof(self.c.hot[pid])))

    def bind_trace(self, pid: int, trace: CompiledTrace) -> None:
        """Point core ``pid`` at its trace columns."""
        if not len(trace):
            return
        lib.loop_set_trace(self.c, pid, self._pin(trace.ops, "int8_t *"),
                           self._pin(trace.args, "unsigned char *"),
                           len(trace))

    def _pin(self, column, ctype: str):
        """A pointer to ``column``'s first item, kept valid while the
        table lives.

        A view column (a trace loaded from the workload store) is pinned
        through the object under it: the cycle collector cannot clear a
        memoryview that has exports, and crashes if one is garbage."""
        if not isinstance(column, memoryview):
            owner = ffi.from_buffer(column)
            self._keep.append(owner)
            return ffi.cast(ctype, owner)
        owner = ffi.from_buffer(column.obj)
        view = ffi.from_buffer(column)
        offset = (int(ffi.cast("uintptr_t", view)) -
                  int(ffi.cast("uintptr_t", owner)))
        ffi.release(view)
        self._keep.append(owner)
        return ffi.cast(ctype, ffi.cast("char *", owner) + offset)

    def __deepcopy__(self, memo) -> "CoreTable":
        clone = object.__new__(CoreTable)
        memo[id(self)] = clone
        clone._adopt(lib.loop_clone(self.c))
        clone._keep = self._keep
        clone._views()
        return clone

    def counters(self) -> dict[str, int]:
        """What the loop did, as integers (never part of the results):
        entries taken off the queue (``pops``), entries pushed into its
        calendar and into its heap tier (``pushes.calendar``,
        ``pushes.heap``), fused residencies, records ``mem_advance``
        dispatched per trace op (``records.<op>``) and its returns per
        reason (``returns.<reason>``), checkpoints the compiled core ran
        and their members (``ckpt.calls``, ``ckpt.members``), and drain
        entries it completed or found stale (``drains.completed``,
        ``drains.stale``).  A fork's table counts from zero."""
        c = self.c
        counts = {"pops": c.pops, "pushes.calendar": c.cal_pushes,
                  "pushes.heap": c.far_pushes, "residencies": c.residencies}
        counts.update((f"records.{name}", c.records[op])
                      for op, name in OP_NAMES.items())
        counts.update((f"returns.{name}", c.returns[code])
                      for code, name in _RETURNS.items())
        counts.update({"ckpt.calls": c.ckpt_calls,
                       "ckpt.members": c.ckpt_members,
                       "drains.completed": c.drains_completed,
                       "drains.stale": c.drains_stale})
        return counts


#: ``Core.blocked`` values by their row code.
_BLOCKED = (None, "lock", "barrier")
_BLOCK_CODES = {value: code for code, value in enumerate(_BLOCKED)}

#: The :class:`CoreStats` fields a core's row accumulates.
_ROW_STATS = ("busy", "sync_wait", "wb_delay", "wb_imbalance", "ckpt_sync",
              "ipc_delay", "depset_stall", "ckpt_backoff", "stall_overhang",
              "n_checkpoints", "last_ckpt_time", "ckpt_gap_sum",
              "ckpt_gap_count")
_row_stats = operator.attrgetter(*_ROW_STATS)


class Core(ctypes.Structure):
    """One tile's core: trace cursor, clock, block state, snapshots.

    The ``_fields_`` are those of the core's row of the machine loop
    (``mem_hot_t``).  A standalone core (unit tests) gets a table of its
    own; a machine's cores share the machine's."""

    _fields_ = row_fields("mem_hot_t",
                          {"delayed_ckpt_id", "block_site", "blocked"})

    # ctypes structures are unhashable by default; a core is an entity.
    __hash__ = object.__hash__

    def __new__(cls, pid: int, trace, table: Optional[CoreTable] = None):
        table = CoreTable(pid + 1) if table is None else table
        core = cls.from_address(table.row(pid))
        core._t = table      # keeps the row's memory alive
        return core

    def __init__(self, pid: int, trace, table: Optional[CoreTable] = None):
        self.pid = pid
        self.trace = trace
        # A raw tuple trace (unit tests poking at core state directly)
        # has no columns for the loop; the machine always compiles
        # traces before building cores.
        if isinstance(trace, CompiledTrace):
            self._t.bind_trace(pid, trace)
        # The row starts zeroed (loop_new) but for its -1 fields and
        # next_ckpt_id 1; while a checkpoint (or its delayed drain) is
        # in flight (ckpt_busy_until) the core Nacks/Busies external
        # checkpoint requests (Sections 3.3.4, 4.1).  The loop starts
        # the snapshots with snapshot 0, program start: rolling back to
        # it replays all work.
        self._stats = CoreStats()
        self.store_tag = pid << 40      # high bits of every store value
        # Clock watermarks for back-to-back rollbacks: cycles below
        # waste_charged_until were already written off as wasted work,
        # and recovery time before recovery_until was already counted.
        self.waste_charged_until = 0.0
        self.recovery_until = 0.0
        # Cumulative checkpoint-overhead cycles already attributed at
        # the last rollback: a discarded span contains checkpoint stalls
        # too, and those cycles must stay in the overhead bucket rather
        # than be charged a second time as rollback waste (the useful-
        # work partition would go negative otherwise).
        self.overhead_reclaim_mark = 0.0

    #: The checkpoint whose Delayed lines are draining, if any.
    delayed_ckpt_id = optional_field("_delayed_ckpt_id")
    block_site = optional_field("_block_site")

    #: The ids of the locks this core holds.
    held_locks = property(lambda self: frozenset(
        i for i, lock in self._t.locks.items() if lock._holder == self.pid))
    #: Crossings by barrier id (barriers never crossed are left out).
    barrier_crossings = property(lambda self: {
        i: bar.crossed[self.pid] for i, bar in self._t.barriers.items()
        if bar.crossed[self.pid]})

    @property
    def blocked(self) -> Optional[str]:
        return _BLOCKED[self._blocked]

    @blocked.setter
    def blocked(self, value: Optional[str]) -> None:
        self._blocked = _BLOCK_CODES[value]

    @property
    def stats(self) -> CoreStats:
        """The core's :class:`CoreStats`, with the row's accumulators
        copied in (those fields are written through the row)."""
        stats = self._stats
        for name, value in zip(_ROW_STATS, _row_stats(self)):
            setattr(stats, name, value)
        return stats

    #: The snapshots, oldest first (views of the loop's rows).
    snapshots = property(lambda self: Snapshots(self._t, self.pid))
    #: Wall-clock extents of every charged checkpoint-stall window: a
    #: window that runs past the core's last committed record (the
    #: final checkpoint's sync and writeback tail, an end-of-run
    #: back-off loop) or past a rollback cut displaced no execution, so
    #: its overhang is tracked in ``stall_overhang`` and netted out of
    #: the useful-work overhead bucket.
    stall_segments = property(lambda self: StallWindows(self._t, self.pid))

    def __deepcopy__(self, memo) -> "Core":
        """A core over the copied table's row (which holds its snapshots
        and stall windows); the flat stats are copied shallowly."""
        table = copy.deepcopy(self._t, memo)
        clone = type(self).from_address(table.row(self.pid))
        memo[id(self)] = clone
        state = {"_t": table, "_stats": copy.copy(self._stats)}
        for name, value in vars(self).items():
            if name not in state:
                state[name] = copy.deepcopy(value, memo)
        vars(clone).update(state)
        return clone

    def charge_stall(self, field: str, start: float, end: float) -> None:
        """Charge a checkpoint-stall window to the row's CoreStats
        ``field`` and remember its wall-clock extent for overhang
        accounting."""
        if end <= start:
            return
        setattr(self, field, getattr(self, field) + (end - start))
        self.stall_segments.append((start, end))

    def truncate_stalls(self, cut: float) -> None:
        """End every in-flight stall window at ``cut`` (a rollback took
        the core over): the charged tail past the cut goes to
        ``stall_overhang``, netting it out of the overhead bucket while
        the gross per-category counters keep the paper-facing values.

        Every window is then dropped: rollback cuts arrive in
        non-decreasing detection order and the core's final end time is
        at least this rollback's resume time, so a window ending at or
        before ``cut`` can never produce overhang again — keeping it
        would only grow the list for later rescans."""
        lib.loop_truncate_stalls(self._t.c, self.pid, cut)

    def refund_stall_overhang(self) -> None:
        """Count stall cycles charged past the core's final end time as
        overhang (called once by the machine's finalize, after end_time
        is set): a window that ran past the last committed record
        displaced no execution, so it must not occupy overhead budget
        inside the run's [0, runtime] cycle partition."""
        lib.loop_refund_overhang(self._t.c, self.pid, self._stats.end_time)

    # -- values -------------------------------------------------------------
    def next_store_value(self) -> int:
        """Unique architectural value for the next store (pid, seq)."""
        self.store_seq += 1
        return self.store_tag | self.store_seq

    # -- snapshots ------------------------------------------------------------
    def take_snapshot(self, now: float,
                      overhead_mark: float = 0.0) -> CoreSnapshot:
        """Snapshot ``next_ckpt_id``: the trace position, instruction
        count, held locks and barrier crossings at ``now``."""
        index = lib.loop_snapshot(self._t.c, self.pid, now, overhead_mark)
        if index < 0:
            raise MemoryError("cannot grow the snapshot rows")
        return SnapshotRow(self._t, self.pid, index)

    def snapshot_for(self, ckpt_id: int) -> CoreSnapshot:
        index = lib.loop_snap_find(self._t.c, self.pid, ckpt_id)
        if index < 0:
            raise KeyError(f"core {self.pid}: no snapshot {ckpt_id}")
        return SnapshotRow(self._t, self.pid, index)

    def latest_safe_snapshot(self, detect_time: float,
                             detection_latency: float) -> CoreSnapshot:
        """Newest snapshot fully complete >= L cycles before detection.

        The program-start snapshot always qualifies, so recovery can never
        fail to find a target (Appendix A relies on this).
        """
        return SnapshotRow(self._t, self.pid, lib.loop_snap_safe(
            self._t.c, self.pid, detect_time, detection_latency))

    def snapshots_after(self, ckpt_id: int) -> int:
        """How many snapshots are newer than checkpoint ``ckpt_id``."""
        return lib.loop_snap_newer(self._t.c, self.pid, ckpt_id)

    def rollback_to(self, snap: CoreSnapshot, resume_time: float,
                    detect_time: Optional[float] = None) -> float:
        """Rewind to ``snap``; returns the wasted (discarded) cycles.

        Waste is the execution discarded *this* rollback: the clock
        span from the rollback target (or the previous rollback's
        resume point — ``waste_charged_until`` — whichever is later) up
        to the detection time.  The detect cap keeps in-flight record
        tails out; the watermark keeps a back-to-back fault, detected
        before re-execution got anywhere, from charging the same span
        (or the recovery wait itself) a second time.
        """
        executed_until = self.time if detect_time is None \
            else min(self.time, detect_time)
        wasted = max(0.0, executed_until -
                     max(snap.time, self.waste_charged_until))
        self.waste_charged_until = max(self.waste_charged_until,
                                       resume_time)
        self.ip = snap.trace_ip
        self.instr_count = snap.instr_count
        self.instr_since_ckpt = 0
        ckpt_id = snap.ckpt_id
        lib.loop_snap_keep(self._t.c, self.pid, ckpt_id)
        self.next_ckpt_id = ckpt_id + 1
        self.time = resume_time
        self.blocked = None
        self.block_site = None
        self.done = False
        self.not_before = resume_time
        self.ckpt_busy_until = resume_time
        self.pending_delayed = 0
        self.delayed_ckpt_id = None
        return wasted
