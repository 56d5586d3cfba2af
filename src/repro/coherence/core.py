"""The production memory system: the compiled core and its Python owner.

:class:`CompiledEngine` owns one ``mem_core_t`` (``memsys.c``): the
per-core L1/L2 caches, the directory, the memory channels' horizons,
the memory value image, the golden image, the ReVive undo log, Rebound's
Dep registers and every counter :class:`~repro.sim.stats.SimStats`
reads.  It offers the services of the Python oracle,
:class:`~repro.coherence.protocol.CoherenceEngine`, with bit-identical
results; the oracle stays as the reference the differential tests
compare against.

The machine loop runs inside the core (:meth:`CompiledEngine.advance`,
``mem_advance``), which executes loads and stores with no Python frame
per access.  The built-in trackers' per-access hooks run there too
(:func:`native_hooks`): Rebound's dependence records and WSIG stamps
work on the Dep registers in the core, and every writeback is logged in
the core, its interval read from the Dep registers or the core's row.
Python hears only about checkpoints and rollbacks, and a built-in
scheme's checkpoint is itself one call (:meth:`CompiledEngine.
checkpoint`), its delayed drains completed by the loop
(:meth:`CompiledEngine.drain`).  Any other tracker
(an out-of-tree :class:`~repro.coherence.protocol.DependenceTracker`,
or a built-in one whose hooks a subclass overrides) is called back:

* a dependence, when the tracker is enabled and LW-ID names another
  core: one :meth:`~repro.coherence.protocol.DependenceTracker.
  record_dependence` call, whose ``claims`` the core acts on;
* a WSIG stamp, when the tracker is enabled;
* a writeback's interval (``interval_of``/``delayed_interval_of``), and
  a Delayed line leaving the cache (``on_line_left_cache``).

Golden-image checks (``check_coherence``) and the WSIG's
no-false-negative check run inside the core.  A failed check, or an
exception raised by a callback, poisons the core: every later entry
point returns a negative result, and the Python side raises the failure
(the callback's own exception, with its traceback).

``machine.memory``, ``machine.log`` and ``machine.channels`` are views
of the core, valid while the engine lives (they refer back to it
weakly, :mod:`repro.backref`): :class:`CoreMemory`, the oracle's
``MainMemory`` over a :class:`CoreMap` of the image, :class:`CoreLog`, a ``ReviveLog`` whose
entries are built only when read, and :class:`CoreChannels`, which runs
the oracle's ``MemoryChannels`` code for the scheme-side services
(``bg_*``, ``restore``) on the core's horizons.  Rebound's Dep-register
files are :class:`~repro.core.dep_registers.CoreDepRegisterFile` views
(:meth:`CompiledEngine.dep_files`).
"""

from __future__ import annotations

import copy
import ctypes
from collections.abc import Sequence
from typing import Optional

from repro.backref import BackRef, backref
from repro.coherence import build
from repro.coherence.protocol import EntryState, LineState, overrides
from repro.mem import LogEntry, MainMemory, MemoryChannels, ReviveLog
from repro.params import LOG_ENTRY_BYTES, MachineConfig

_module = build.load()
ffi = _module.ffi
lib = _module.lib

#: Sharers are one 64-bit mask per directory entry, and the loop's lock
#: and barrier rows hold as many pids.
MAX_CORES = lib.SYNC_CORES

_IMAGE, _GOLDEN = 0, 1

#: The ``ctypes`` type of each scalar C type a row view's struct uses.
_CTYPES = {"_Bool": ctypes.c_bool, "int8_t": ctypes.c_int8,
           "uint8_t": ctypes.c_uint8, "int32_t": ctypes.c_int32,
           "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64,
           "double": ctypes.c_double}


def row_fields(struct: str, wrapped=frozenset()) -> list[tuple[str, type]]:
    """The ``_fields_`` of a ``ctypes`` view of C struct ``struct``, as
    cffi read it from the C source's declaration block: every field in
    order under its C name, or under ``_name`` for the names in
    ``wrapped`` (those a property of the view wraps)."""
    def ctype(tp):
        if tp.kind == "array":
            return ctype(tp.item) * tp.length
        return _CTYPES[tp.cname]
    return [("_" + name if name in wrapped else name, ctype(field.type))
            for name, field in ffi.typeof(struct).fields]

#: The tracker methods the core runs in place of a built-in tracker.
_HOOK_METHODS = ("on_write", "record_dependence", "on_line_left_cache",
                 "interval_of", "delayed_interval_of")


def native_hooks(tracker) -> int:
    """The ``HOOKS_*`` mode the core runs for ``tracker``.

    A tracker class declaring ``NATIVE_HOOKS`` has its hooks built into
    the core.  A subclass inherits them only if it overrides none of
    the hook methods and keeps ``enabled``; anything else is called
    back (``HOOKS_PYTHON``)."""
    cls = type(tracker)
    base = next((k for k in cls.__mro__ if "NATIVE_HOOKS" in vars(k)), None)
    if base is None or tracker.enabled != base.enabled or overrides(
            cls, base, _HOOK_METHODS):
        return lib.HOOKS_PYTHON
    return getattr(lib, "HOOKS_" + base.NATIVE_HOOKS.upper())


# Each callback runs its work under ``except BaseException``: an
# exception (a Ctrl-C too) cannot cross the C frames, so it is parked on
# the engine, the callback returns -1, the core poisons itself, and the
# entry point's Python side re-raises it (``raise_failure``).


@ffi.def_extern()
def mem_cb_dependence(owner, consumer, producer, addr):
    engine = ffi.from_handle(owner)()
    try:
        return engine.tracker.record_dependence(consumer, producer, addr)
    except BaseException as exc:
        engine.failure = exc
        return -1


@ffi.def_extern()
def mem_cb_wsig(owner, pid, addr):
    engine = ffi.from_handle(owner)()
    try:
        engine.tracker.on_write(pid, addr)
    except BaseException as exc:
        engine.failure = exc
        return -1
    return 0


@ffi.def_extern()
def mem_cb_line(owner, now, pid, addr, kind, interval):
    engine = ffi.from_handle(owner)()
    try:
        tracker = engine.tracker
        if kind == lib.LINE_LOG_CURRENT:
            interval[0] = tracker.interval_of(pid)
        else:
            if kind == lib.LINE_LOG_DELAYED:
                interval[0] = tracker.delayed_interval_of(pid)
            tracker.on_line_left_cache(pid, addr, now)
    except BaseException as exc:
        engine.failure = exc
        return -1
    return 0


class CoreMap:
    """Mapping view of one value table of the core: the memory image
    (``MainMemory._values``) or the golden image (``engine.golden``).
    Missing lines read as absent, exactly like the oracle's dicts."""

    __slots__ = ("_engine_ref", "_which")
    _engine = backref()

    def __init__(self, engine: "CompiledEngine", which: int):
        self._engine = engine
        self._which = which

    def get(self, addr: int, default=None):
        out = ffi.new("int64_t *")
        if lib.mem_map_get(self._engine._c, self._which, addr, out):
            return out[0]
        return default

    def __getitem__(self, addr: int) -> int:
        out = ffi.new("int64_t *")
        if not lib.mem_map_get(self._engine._c, self._which, addr, out):
            raise KeyError(addr)
        return out[0]

    def __setitem__(self, addr: int, value: int) -> None:
        if not lib.mem_map_set(self._engine._c, self._which, addr, value):
            self._engine.raise_failure()

    def __len__(self) -> int:
        return lib.mem_map_size(self._engine._c, self._which)

    def keys(self) -> list[int]:
        """Every line the table holds, in insertion order (``dict(view)``
        copies the table, as ``MainMemory.snapshot`` does)."""
        c = self._engine._c
        return [lib.mem_map_key(c, self._which, i) for i in range(len(self))]

    def __deepcopy__(self, memo) -> "CoreMap":
        return CoreMap(copy.deepcopy(self._engine, memo), self._which)


def _entry(raw) -> LogEntry:
    return LogEntry(raw.seq, raw.time, raw.pid, raw.addr, raw.old_value,
                    raw.interval)


class UndoneEntries(Sequence):
    """The entries a rollback undid, newest first, as the compiled
    restore wrote them: a rollback needs their count, and each entry
    only in check mode, so a :class:`~repro.mem.log.LogEntry` is built
    only when read."""

    __slots__ = ("_out", "_n")

    def __init__(self, out, n: int):
        self._out = out
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("undone entry index out of range")
        return _entry(self._out[index])


class CoreLog(ReviveLog):
    """:class:`ReviveLog` over the core's undo log: the entries, the seq
    counter the checkpoint markers share, the entry count and the bytes
    per time bin live in the core.  Entries are built as
    :class:`~repro.mem.log.LogEntry` objects only when read; the markers
    are kept here."""

    _engine = backref()

    def __init__(self, engine: "CompiledEngine", n_banks: int,
                 bin_cycles: int):
        self._engine = engine
        self.n_banks = n_banks
        self.bin_cycles = max(1, bin_cycles)
        self._end_markers = {}
        self._begin_markers = {}

    @property
    def total_entries(self) -> int:
        return self._engine._c.log_total

    @property
    def banks(self) -> list[list[LogEntry]]:
        banks = [[] for _ in range(self.n_banks)]
        c = self._engine._c
        for i in range(c.log_n):
            entry = _entry(c.log[i])
            banks[entry.addr % self.n_banks].append(entry)
        return banks

    def next_seq(self) -> int:
        self._engine._c.log_seq += 1
        return self._engine._c.log_seq

    def entries_after(self, targets: dict[int, int]) -> list[LogEntry]:
        c = self._engine._c
        out = ffi.new("mem_logent_t[]", max(1, c.log_n))
        n = lib.mem_log_select(c, self._engine.targets(targets), out)
        return [_entry(out[i]) for i in range(n)]

    def discard_after(self, targets: dict[int, int]) -> int:
        return lib.mem_log_discard(self._engine._c,
                                   self._engine.targets(targets))

    def live_entries(self) -> int:
        return self._engine._c.log_n

    def max_interval_bytes(self) -> int:
        return lib.mem_log_max_bin(self._engine._c)


def _memory_field(name: str) -> property:
    return property(lambda self: getattr(self._engine._c, name))


class CoreMemory(MainMemory):
    """:class:`MainMemory` over the core: the value image is a
    :class:`CoreMap`, and the core logs every writeback itself (the
    first-writeback filter, the counters and the undo log are there).
    Peeks, snapshots and the rollback restore go through the views."""

    writes = _memory_field("mem_writes")
    logged_writebacks = _memory_field("logged_writebacks")
    suppressed_logs = _memory_field("suppressed_logs")
    _engine = backref()

    def __init__(self, log: CoreLog, engine: "CompiledEngine"):
        self.log = log
        self._engine = engine
        self._values = CoreMap(engine, _IMAGE)
        self.reads = 0

    def log_writeback(self, time: float, pid: int, addr: int, old: int,
                      interval: int) -> bool:
        logged = lib.mem_log_writeback(self._engine._c, time, pid, addr,
                                       old, interval)
        if self._engine._c.failed:
            self._engine.raise_failure()
        return bool(logged)

    def end_interval(self, pid: int, interval: int) -> None:
        lib.mem_end_interval(self._engine._c, pid, interval)

    def restore(self, targets: dict[int, int]) -> UndoneEntries:
        c = self._engine._c
        out = ffi.new("mem_logent_t[]", max(1, c.log_n))
        n = lib.mem_log_restore(c, self._engine.targets(targets), out)
        if n < 0:
            self._engine.raise_failure()
        return UndoneEntries(out, n)


def _channel_field(name: str) -> property:
    return property(lambda self: getattr(self._engine._c, name),
                    lambda self, value: setattr(self._engine._c, name, value))


class CoreChannels(MemoryChannels):
    """:class:`MemoryChannels` over the core's channel state.

    The horizons are the core's arrays, so the scheme-side services the
    class defines (``bg_start``/``bg_stop``/``bg_drain_time``/
    ``bg_account``, ``restore``) run unchanged on the state the core's
    demand accesses and writebacks advance."""

    demand_busy = _channel_field("demand_busy")
    wb_busy = _channel_field("wb_busy")
    ckpt_wb_busy = _channel_field("ckpt_wb_busy")
    bg_streams = _channel_field("bg_streams")
    demand_accesses = _channel_field("demand_accesses")
    wb_transfers = _channel_field("wb_transfers")
    demand_wait_cycles = _channel_field("demand_wait_cycles")
    demand_ckpt_wait_cycles = _channel_field("demand_ckpt_wait_cycles")
    _engine = backref()

    def __init__(self, engine: "CompiledEngine"):
        self._engine = engine
        self.config = engine.config
        self.n = engine.config.n_mem_channels

    def __deepcopy__(self, memo) -> "CoreChannels":
        return CoreChannels(copy.deepcopy(self._engine, memo))


class CompiledEngine:
    """The coherence engine of every :class:`~repro.sim.machine.Machine`.

    Same services and results as the oracle
    :class:`~repro.coherence.protocol.CoherenceEngine`; the state lives
    in the compiled core.  Forking (``copy.deepcopy``) clones the core's
    struct and routes its callbacks to the clone's tracker and memory.
    """

    #: Python state deep-copied by a fork (the core is cloned).
    _PY_STATE = ("config", "network", "tracker", "memory", "channels",
                 "hooks")

    def __init__(self, config: MachineConfig, log: ReviveLog, network,
                 tracker):
        """``log`` gives the undo log's banks and time bins; the log
        itself is the core's (``memory.log``)."""
        if config.n_cores > MAX_CORES:
            raise ValueError(
                f"the compiled memory system supports at most {MAX_CORES} "
                f"cores (one 64-bit sharer mask per directory entry); "
                f"this machine has {config.n_cores}")
        self.config = config
        self.network = network
        self.tracker = tracker
        #: The exception a callback raised, until it is re-raised.
        self.failure: Optional[BaseException] = None
        #: The ``HOOKS_*`` mode (:func:`native_hooks`).
        self.hooks = native_hooks(tracker)
        raw = lib.mem_new(
            config.n_cores, config.l1.n_sets, config.l1.assoc,
            config.l2.n_sets, config.l2.assoc, config.n_mem_channels,
            config.l1.hit_cycles, config.l2.hit_cycles,
            config.remote_l2_cycles, config.memory_cycles,
            config.dram_occupancy, config.logged_wb_occupancy,
            int(config.check_coherence), int(bool(tracker.enabled)))
        self._adopt(raw)
        if self.hooks == lib.HOOKS_REBOUND:
            bits = config.wsig_bits
            if bits <= 0 or bits & (bits - 1):
                raise ValueError("wsig_bits must be a positive power of two")
        if not lib.mem_set_hooks(self._c, self.hooks, config.n_dep_sets,
                                 config.wsig_bits, config.wsig_hashes,
                                 config.dep_cluster_size):
            raise MemoryError(
                "cannot set up the compiled Dep registers (out of memory, "
                "or more than 64 wsig_hashes)")
        lib.mem_set_log(self._c, log.bin_cycles, LOG_ENTRY_BYTES)
        self.memory = CoreMemory(CoreLog(self, log.n_banks, log.bin_cycles),
                                 self)
        self.channels = CoreChannels(self)
        self._bind()

    def _adopt(self, raw) -> None:
        if raw == ffi.NULL:
            raise MemoryError("cannot allocate the compiled memory system")
        self._c = ffi.gc(raw, lib.mem_free)

    def _bind(self) -> None:
        """Point the core's callbacks at this engine and expose views.
        The core's handle holds a :class:`~repro.backref.BackRef`, so
        it does not keep the engine alive."""
        self._handle = ffi.new_handle(BackRef(self))
        self._c.owner = self._handle
        self.ckpt_wait = self._c.ckpt_wait
        self.golden = CoreMap(self, _GOLDEN)

    def __deepcopy__(self, memo) -> "CompiledEngine":
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone._adopt(lib.mem_clone(self._c))
        for name in self._PY_STATE:
            setattr(clone, name, copy.deepcopy(getattr(self, name), memo))
        clone.failure = self.failure
        clone._bind()
        return clone

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def raise_failure(self):
        """Raise what poisoned the core (a callback's exception or a
        failed golden/inclusion/ownership check)."""
        c = self._c
        if c.failed == lib.FAIL_CALLBACK and self.failure is not None:
            exc, self.failure = self.failure, None
            raise exc
        if c.failed == lib.FAIL_GOLDEN:
            raise AssertionError(
                f"coherence violation at {c.fail_addr:#x}: loaded "
                f"{c.fail_loaded:#x}, expected {c.fail_expected:#x}")
        if c.failed == lib.FAIL_BLOOM:
            raise AssertionError(
                f"Bloom filter false negative: core {c.fail_pid} wrote line "
                f"{c.fail_addr:#x} but its WSIG misses it")
        if c.failed == lib.FAIL_INCLUSION:
            raise AssertionError("L1/L2 inclusion violated")
        if c.failed == lib.FAIL_OWNER:
            raise AssertionError("directory owner lost the line")
        if c.failed == lib.FAIL_DEPSETS:
            raise AssertionError(
                f"core {c.fail_pid} is out of Dep register sets")
        if c.failed == lib.FAIL_CALLBACK:
            raise RuntimeError("the compiled memory system failed earlier")
        raise MemoryError("the compiled memory system ran out of memory")

    # ------------------------------------------------------------------
    # the machine's core rows, Dep registers and log targets
    # ------------------------------------------------------------------
    def bind_loop(self, table) -> None:
        """Read the core rows of ``table`` (a
        :class:`~repro.sim.cores.CoreTable`) on writebacks; a machine
        binds its engine before any access, and a fork its clones."""
        lib.mem_bind_loop(self._c, table.c)

    def rebind_tracker(self, tracker) -> None:
        """Hand the core to another tracker that runs the same hooks
        (a NONE fork of a Global leader: both run Global's)."""
        if native_hooks(tracker) != self.hooks:
            raise ValueError("only trackers that run the same hooks "
                             "can be exchanged")
        self.tracker = tracker

    def dep_files(self) -> Optional[list]:
        """One :class:`~repro.core.dep_registers.CoreDepRegisterFile`
        per core when the core runs Rebound's hooks, else None."""
        if self.hooks != lib.HOOKS_REBOUND:
            return None
        from repro.core.dep_registers import CoreDepRegisterFile
        config = self.config
        return [CoreDepRegisterFile(self, pid, config.n_dep_sets,
                                    config.wsig_bits, config.wsig_hashes)
                for pid in range(config.n_cores)]

    def dep_row(self, pid: int, slot: int) -> int:
        """The address of ``pid``'s Dep-register row ``slot``."""
        return int(ffi.cast("uintptr_t", lib.mem_dep_row(self._c, pid, slot)))

    def dep_reset(self, pid: int, slot: int, interval_id: int,
                  now: float) -> None:
        if not lib.mem_dep_reset(self._c, pid, slot, interval_id, now):
            self.raise_failure()

    def set_dep_order(self, pid: int, slots: list[int]) -> None:
        """Publish ``pid``'s live sets, oldest first."""
        lib.mem_dep_order(self._c, pid, ffi.new("int32_t[]", slots),
                          len(slots))

    def wsig_words(self, pid: int, slot: int):
        """The Bloom words of a WSIG, as a writable ``ctypes`` array."""
        n = -(-self.config.wsig_bits // 64)
        address = int(ffi.cast("uintptr_t",
                               lib.mem_dep_words(self._c, pid, slot)))
        return (ctypes.c_uint64 * n).from_address(address)

    def wsig_exact(self, pid: int, slot: int) -> list[int]:
        """A WSIG's exact shadow, in insertion order."""
        c = self._c
        return [lib.mem_wsig_key(c, pid, slot, i)
                for i in range(lib.mem_wsig_size(c, pid, slot))]

    def wsig_merge(self, pid: int, dst: int, src: int) -> None:
        if not lib.mem_wsig_merge(self._c, pid, dst, src):
            self.raise_failure()

    def targets(self, targets: dict[int, int]):
        """Rollback targets (pid -> checkpoint id) as the core's array."""
        out = ffi.new("int64_t[]", [-1] * self.config.n_cores)
        for pid, ckpt_id in targets.items():
            out[pid] = ckpt_id
        return out

    # ------------------------------------------------------------------
    # accesses
    # ------------------------------------------------------------------
    def advance(self, loop, limit: float, gate: float, quantum: int,
                event) -> int:
        """Run the machine loop ``loop`` (a ``mem_loop_t``) on this
        memory system until it needs Python; returns an ``ADV_*`` reason
        and fills ``event`` (see ``mem_advance`` in ``memsys.c``).
        ``ADV_FAILED`` means the core failed (:meth:`raise_failure`)."""
        return lib.mem_advance(self._c, loop, limit, gate, quantum, event)

    def sync_arrive(self, loop, pid: int, barrier_id: int,
                    now: float) -> tuple[int, float]:
        """Core ``pid`` arrives at a barrier of ``loop`` up to the
        scheme's hook: ``(SYNC_*, time)`` (``sync_arrive``)."""
        t = ffi.new("double *")
        code = lib.sync_arrive(self._c, loop, pid, barrier_id, now, t)
        if code < 0:
            self.raise_failure()
        return code, t[0]

    def sync_release(self, loop, pid: int, barrier_id: int, now: float,
                     flag_time: float) -> float:
        """The last arriver ``pid`` releases the barrier; returns the
        release time (``sync_release``)."""
        release = lib.sync_release(self._c, loop, pid, barrier_id, now,
                                   flag_time)
        if release < 0.0:
            self.raise_failure()
        return release

    def sync_grant_next(self, loop, lock_id: int, now: float) -> None:
        """Hands a free lock of ``loop`` to its first waiter."""
        if lib.sync_grant_next(self._c, loop, lock_id, now) < 0:
            self.raise_failure()

    def load(self, pid: int, addr: int, now: float) -> float:
        """Execute a load; returns its latency in cycles."""
        latency = lib.mem_load(self._c, pid, addr, now)
        if latency < 0.0:
            self.raise_failure()
        return latency

    def store(self, pid: int, addr: int, value: int, now: float) -> float:
        """Execute a store; returns its latency in cycles."""
        latency = lib.mem_store(self._c, pid, addr, value, now)
        if latency < 0.0:
            self.raise_failure()
        return latency

    # ------------------------------------------------------------------
    # residency, checkpoint and rollback services
    # ------------------------------------------------------------------
    def fastpath_epoch(self, pid: int) -> None:
        """Advance ``pid``'s residency epoch."""
        lib.mem_fastpath_epoch(self._c, pid)

    def checkpoint_writeback(self, pid: int, now: float) -> tuple[float, int]:
        """Burst-writeback all dirty lines of ``pid`` (M -> E); returns
        ``(completion time, n_lines)``."""
        count = ffi.new("int64_t *")
        done = lib.mem_checkpoint_writeback(
            self._c, pid, now, self.tracker.interval_of(pid), count)
        if self._c.failed:
            self.raise_failure()
        return done, count[0]

    def mark_delayed(self, pid: int) -> int:
        """Set the Delayed bit on all dirty lines."""
        return lib.mem_mark_delayed(self._c, pid)

    def complete_delayed(self, pid: int, now: float, interval: int) -> int:
        """Drain every still-Delayed line of ``pid`` to memory."""
        count = lib.mem_complete_delayed(self._c, pid, now, interval)
        if self._c.failed:
            self.raise_failure()
        return count

    def checkpoint(self, loop, pids: list[int], now: float, use_dwb: bool,
                   config: MachineConfig) -> tuple[float, float, int]:
        """Checkpoint the cores ``pids`` of ``loop`` together at ``now``
        as :meth:`~repro.core.scheme_base.BaseScheme._execute_checkpoint`
        does for a built-in scheme (``mem_checkpoint``): returns the
        members' resume time, the checkpoint's duration and the lines
        it wrote back."""
        out = ffi.new("mem_ckpt_t *")
        if not lib.mem_checkpoint(self._c, loop, ffi.new("int32_t[]", pids),
                                  len(pids), now, use_dwb, config.msg_cycles,
                                  config.sync_cycles, config.dwb_drain_period,
                                  out):
            self.raise_failure()
        return out.resume, out.duration, out.dirty

    def drain(self, loop, pid: int, ckpt_id: int, now: float) -> None:
        """Complete ``pid``'s delayed drain of checkpoint ``ckpt_id``
        unless it is stale (``mem_drain``)."""
        if not lib.mem_drain(self._c, loop, pid, ckpt_id, now):
            self.raise_failure()

    def invalidate_core(self, pid: int) -> int:
        """Flash-invalidate both cache levels of ``pid`` (rollback)."""
        count = lib.mem_invalidate_core(self._c, pid)
        if self._c.failed:
            self.raise_failure()
        return count

    def dirty_line_addrs(self, pid: int) -> list[int]:
        cap = self.config.l2.n_sets * self.config.l2.assoc
        out = ffi.new("int64_t[]", cap)
        return ffi.unpack(out, lib.mem_dirty_lines(self._c, pid, out, cap))

    # ------------------------------------------------------------------
    # counters and read-only introspection
    # ------------------------------------------------------------------
    def energy_events(self) -> dict:
        """The per-class energy-event mapping (nonzero classes only)."""
        c = self._c
        events = {}
        for key in ("l1", "l2", "dir", "dram", "log", "wsig", "depreg"):
            count = getattr(c, "energy_" + key)
            if count:
                events[key] = count
        return events

    def tally(self) -> dict[str, int]:
        """The memory-system counters :class:`SimStats` reports."""
        c = self._c
        n = self.config.n_cores
        return {
            "l1_hits": sum(ffi.unpack(c.l1_hits, n)),
            "l1_misses": sum(ffi.unpack(c.l1_misses, n)),
            "l2_hits": sum(ffi.unpack(c.l2_hits, n)),
            "l2_misses": sum(ffi.unpack(c.l2_misses, n)),
            "fastpath_loads": c.fast_loads,
            "fastpath_stores": c.fast_stores,
            "fastpath_epoch_bumps": sum(ffi.unpack(c.epochs, n)),
            "invalidations": c.invalidations_sent,
            "mem_accesses": c.energy_l1,
            "base_messages": self.network.base_messages + c.base_messages,
            "dep_messages": self.network.dep_messages + c.dep_messages,
        }

    def lookup_counters(self) -> dict[str, int]:
        """Line lookups (directory, image, golden) the direct table
        answered and those the hash did; never part of the results, and
        a fork counts from zero."""
        c = self._c
        return {"lookups.dense": c.dense_lookups,
                "lookups.hashed": c.hashed_lookups}

    def peek_line(self, pid: int, addr: int) -> Optional[LineState]:
        """``pid``'s L2 copy of ``addr`` (no LRU or counter effect)."""
        out = ffi.new("mem_line_t *")
        if not lib.mem_peek_line(self._c, pid, addr, out):
            return None
        return LineState(out.addr, out.state, out.value, bool(out.dirty),
                         bool(out.delayed))

    def l1_holds(self, pid: int, addr: int) -> bool:
        return bool(lib.mem_l1_holds(self._c, pid, addr))

    def resident_lines(self, pid: int) -> int:
        return lib.mem_resident(self._c, pid)

    def peek_entry(self, addr: int) -> Optional[EntryState]:
        """The directory entry of ``addr``, if one was ever created."""
        out = ffi.new("mem_dirent_t *")
        if not lib.mem_peek_entry(self._c, addr, out):
            return None
        return _entry_state(out)

    def directory_entries(self) -> list[EntryState]:
        out = ffi.new("mem_dirent_t *")
        entries = []
        for i in range(lib.mem_dir_size(self._c)):
            lib.mem_dir_at(self._c, i, out)
            entries.append(_entry_state(out))
        return entries


def _entry_state(raw) -> EntryState:
    return EntryState(raw.addr, raw.mode,
                      raw.owner if raw.owner >= 0 else None, raw.sharers,
                      raw.lw_id if raw.lw_id >= 0 else None)
