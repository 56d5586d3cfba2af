"""The production memory system: the compiled core and its Python owner.

:class:`CompiledEngine` owns one ``mem_core_t`` (``memsys.c``): the
per-core L1/L2 caches, the directory, the memory channels' horizons,
the memory value image, the golden image and every counter
:class:`~repro.sim.stats.SimStats` reads.  It offers the services of
the Python oracle, :class:`~repro.coherence.protocol.CoherenceEngine`,
with bit-identical results; the oracle stays as the reference the
differential tests compare against.

The machine loop runs inside the core (:meth:`CompiledEngine.advance`,
``mem_advance``), which executes loads and stores with no Python frame
per access.  Within it, the core re-enters Python only for scheme
events:

* a dependence, when the tracker is enabled and LW-ID names another
  core: one :meth:`~repro.coherence.protocol.DependenceTracker.
  record_dependence` call, whose ``claims`` the core acts on;
* a WSIG stamp, when the tracker is enabled;
* a logged writeback (interval lookup, then
  :meth:`~repro.mem.memory.MainMemory.log_writeback` with the old
  value), and a Delayed line leaving the cache.

Golden-image checks (``check_coherence``) run inside the core.  A
failed check, or an exception raised by a callback, poisons the core:
every later entry point returns a negative result, and the Python side
raises the failure (the callback's own exception, with its traceback).

``machine.memory`` and ``machine.channels`` are views of the core:
:class:`CoreMemory`, the oracle's ``MainMemory`` over a
:class:`CoreMap` of the image, and :class:`CoreChannels`, which runs
the oracle's ``MemoryChannels`` code for the scheme-side services
(``bg_*``, ``restore``) on the core's horizons.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.coherence import build
from repro.coherence.protocol import EntryState, LineState
from repro.mem import MainMemory, MemoryChannels, ReviveLog
from repro.params import MachineConfig

_module = build.load()
ffi = _module.ffi
lib = _module.lib

#: Sharers are one 64-bit mask per directory entry.
MAX_CORES = 64

# ``mem_cb_line`` kinds and failure codes (memsys.c).
_LOG_CURRENT, _LOG_GIVEN, _LOG_DELAYED, _LEFT = range(4)
_FAIL_CALLBACK, _FAIL_GOLDEN, _FAIL_INCLUSION, _FAIL_OWNER = 1, 2, 3, 4
_IMAGE, _GOLDEN = 0, 1


# Each callback runs its work under ``except BaseException``: an
# exception (a Ctrl-C too) cannot cross the C frames, so it is parked on
# the engine, the callback returns -1, the core poisons itself, and the
# entry point's Python side re-raises it (``raise_failure``).


@ffi.def_extern()
def mem_cb_dependence(owner, consumer, producer, addr):
    engine = ffi.from_handle(owner)
    try:
        return engine.tracker.record_dependence(consumer, producer, addr)
    except BaseException as exc:
        engine.failure = exc
        return -1


@ffi.def_extern()
def mem_cb_wsig(owner, pid, addr):
    engine = ffi.from_handle(owner)
    try:
        engine.tracker.on_write(pid, addr)
    except BaseException as exc:
        engine.failure = exc
        return -1
    return 0


@ffi.def_extern()
def mem_cb_line(owner, now, pid, addr, old, kind, interval):
    engine = ffi.from_handle(owner)
    try:
        tracker = engine.tracker
        if kind == _LOG_CURRENT:
            interval = tracker.interval_of(pid)
        elif kind != _LOG_GIVEN:
            if kind == _LOG_DELAYED:
                interval = tracker.delayed_interval_of(pid)
            tracker.on_line_left_cache(pid, addr, now)
            if kind == _LEFT:
                return 0
        engine.memory.log_writeback(now, pid, addr, old, interval)
    except BaseException as exc:
        engine.failure = exc
        return -1
    return 0


class CoreMap:
    """Mapping view of one value table of the core: the memory image
    (``MainMemory._values``) or the golden image (``engine.golden``).
    Missing lines read as absent, exactly like the oracle's dicts."""

    __slots__ = ("_engine", "_which")

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


class CoreMemory(MainMemory):
    """:class:`MainMemory` over the core's value image.  The core writes
    the image on a writeback and calls :meth:`log_writeback` with the
    old value; peeks, snapshots and rollback restores go through the
    view."""

    def __init__(self, log: ReviveLog, engine: "CompiledEngine"):
        super().__init__(log)
        self._values = CoreMap(engine, _IMAGE)


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
    _PY_STATE = ("config", "network", "tracker", "memory", "channels")

    def __init__(self, config: MachineConfig, log: ReviveLog, network,
                 tracker):
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
        raw = lib.mem_new(
            config.n_cores, config.l1.n_sets, config.l1.assoc,
            config.l2.n_sets, config.l2.assoc, config.n_mem_channels,
            config.l1.hit_cycles, config.l2.hit_cycles,
            config.remote_l2_cycles, config.memory_cycles,
            config.dram_occupancy, config.logged_wb_occupancy,
            int(config.check_coherence), int(bool(tracker.enabled)))
        self._adopt(raw)
        self.memory = CoreMemory(log, self)
        self.channels = CoreChannels(self)
        self._bind()

    def _adopt(self, raw) -> None:
        if raw == ffi.NULL:
            raise MemoryError("cannot allocate the compiled memory system")
        self._c = ffi.gc(raw, lib.mem_free)

    def _bind(self) -> None:
        """Point the core's callbacks at this engine and expose views."""
        self._handle = ffi.new_handle(self)
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
        if c.failed == _FAIL_CALLBACK and self.failure is not None:
            exc, self.failure = self.failure, None
            raise exc
        if c.failed == _FAIL_GOLDEN:
            raise AssertionError(
                f"coherence violation at {c.fail_addr:#x}: loaded "
                f"{c.fail_loaded:#x}, expected {c.fail_expected:#x}")
        if c.failed == _FAIL_INCLUSION:
            raise AssertionError("L1/L2 inclusion violated")
        if c.failed == _FAIL_OWNER:
            raise AssertionError("directory owner lost the line")
        if c.failed == _FAIL_CALLBACK:
            raise RuntimeError("the compiled memory system failed earlier")
        raise MemoryError("the compiled memory system ran out of memory")

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
