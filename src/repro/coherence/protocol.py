"""Directory-based MESI coherence engine with Rebound dependence hooks.

This is the substrate Rebound piggybacks on (Section 3.3.1): every
transaction that transfers data between processors updates the
directory's LW-ID field and, through the :class:`DependenceTracker`
interface implemented by the checkpointing scheme, the MyProducers /
MyConsumers / WSIG registers.

Flows implemented (Figure 3.2a):

* ``WR`` — a store gains exclusive ownership; the directory records the
  writer's PID in LW-ID; the previous last writer (if any, and if its
  WSIG confirms) records the WAW dependence in its MyConsumers.
* ``RD`` — a load of a line with a live LW-ID records a RAW dependence:
  the reader sets MyProducers, the writer sets MyConsumers.
* ``RDX`` — a load that finds the line uncached is granted Exclusive and
  therefore also stamps LW-ID (the core may later write silently).
* ``NO_WR`` — the supposed last writer's WSIG misses: the dependence is
  declined and the directory lazily clears the stale LW-ID
  (Section 3.3.2).  The reader's MyProducers was already set, so it stays
  a superset — exactly the imprecision the checkpoint protocol's
  Decline messages absorb.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.coherence.directory import Directory, EXCL, SHARED
from repro.interconnect import Interconnect
from repro.mem import (
    Cache,
    EXCLUSIVE,
    L1Cache,
    MODIFIED,
    MainMemory,
    MemoryChannels,
    ReviveLog,
)
from repro.mem import SHARED as L_SHARED
from repro.params import MachineConfig


class LineState(NamedTuple):
    """A read-only copy of one L2 line (introspection accessors)."""

    addr: int
    state: int
    value: int
    dirty: bool
    delayed: bool


class EntryState(NamedTuple):
    """A read-only copy of one directory entry (introspection)."""

    addr: int
    mode: int
    owner: Optional[int]
    sharers: int
    lw_id: Optional[int]

    def sharer_list(self) -> list[int]:
        """Sharer PIDs in ascending order."""
        return [pid for pid in range(self.sharers.bit_length())
                if self.sharers >> pid & 1]


def overrides(cls: type, base: type, names) -> bool:
    """Whether class ``cls`` replaces any of the methods ``names`` of
    ``base``, one of its built-in bases: a built-in fast path that skips
    the calls (hooks run in C, a post_op gate, barrier hooks) holds only
    when it does not."""
    return any(getattr(cls, name) is not getattr(base, name)
               for name in names)


class DependenceTracker:
    """Scheme-side interface for LW-ID / Dep-register maintenance.

    The default implementation tracks nothing (used by Global and the
    no-checkpointing baseline, which have no such hardware).
    """

    enabled = False

    #: The compiled core runs this class's hooks itself, with no call
    #: per access, for instances of subclasses that override none of them
    #: (``repro.coherence.core.native_hooks``, which runs the core's
    #: ``HOOKS_<NAME>`` mode): ``"none"`` here, ``"global"`` and
    #: ``"rebound"`` on the built-in schemes.
    NATIVE_HOOKS = "none"

    def on_write(self, pid: int, addr: int) -> None:
        """A store or exclusive grant: add ``addr`` to pid's WSIG."""

    def record_dependence(self, consumer: int, producer: int,
                          addr: int) -> bool:
        """One LW-ID dependence, producer -> consumer; returns whether
        the producer claims the write ('are you the last writer of
        addr?').

        The consumer sets MyProducers[producer] as the line arrives,
        before any NO_WR could revert it (superset semantics, Section
        3.3.2); if its WSIG claims ``addr`` the producer sets
        MyConsumers[consumer] (noting a Bloom false positive for the
        Table 6.1 statistic).  This is the one tracker call per
        dependence the engines make."""
        return False

    def on_line_left_cache(self, pid: int, addr: int, now: float) -> None:
        """A Delayed/dirty line left pid's L2 via coherence activity."""

    def interval_of(self, pid: int) -> int:
        """The checkpoint interval ``pid`` is currently executing."""
        return 0

    def delayed_interval_of(self, pid: int) -> int:
        """Interval owning pid's Delayed lines (the one being drained)."""
        return self.interval_of(pid)


class CoherenceEngine:
    """Executes loads, stores, writebacks and invalidations.

    This is the Python oracle of the compiled memory system
    (:class:`repro.coherence.core.CompiledEngine`, which every
    :class:`~repro.sim.machine.Machine` runs): the differential tests
    run both and compare every :class:`~repro.sim.stats.SimStats`
    field, so a change to one must be mirrored in the other.

    All latencies follow Figure 4.3(a); message counts are kept per class
    so the harness can report the extra traffic Rebound adds (Table 6.1).

    Energy events are plain ``__slots__`` int fields (one per accounting
    class) rather than a ``Counter``: the dict-keyed ``+=`` was a
    measurable fraction of every miss.  :meth:`energy_events` rebuilds
    the historical mapping for :class:`~repro.sim.stats.SimStats`.
    """

    __slots__ = (
        "config", "channels", "memory", "network", "tracker", "directory",
        "l1s", "l2s",
        "energy_l1", "energy_l2", "energy_dir", "energy_dram", "energy_log",
        "energy_wsig", "energy_depreg",
        "fast_loads", "fast_stores", "fastpath_epochs",
        "ckpt_wait", "invalidations_sent", "forced_delayed_writebacks",
        "golden", "check", "l1_hit_cycles", "l2_hit_cycles",
        "store_hit_cycles",
    )

    def __init__(self, config: MachineConfig, log: ReviveLog,
                 network: Interconnect, tracker: DependenceTracker):
        self.config = config
        self.channels = MemoryChannels(config)
        self.memory = MainMemory(log)
        self.network = network
        self.tracker = tracker
        self.directory = Directory(config.n_cores)
        self.l1s = [L1Cache(config.l1) for _ in range(config.n_cores)]
        self.l2s = [Cache(config.l2) for _ in range(config.n_cores)]
        self.energy_l1 = 0
        self.energy_l2 = 0
        self.energy_dir = 0
        self.energy_dram = 0
        self.energy_log = 0
        self.energy_wsig = 0
        self.energy_depreg = 0
        # Private hits served without the directory: loads of any
        # L1/L2-resident line, stores to MODIFIED non-Delayed lines
        # (``SimStats.fastpath_loads``/``fastpath_stores``).
        self.fast_loads = 0
        self.fast_stores = 0
        # Per-core residency epochs: bumped on every event that can
        # change a line's hit status (see fastpath_epoch).
        self.fastpath_epochs = [0] * config.n_cores
        # Demand-wait cycles caused by checkpoint traffic, per core
        # (feeds the IPCDelay category of Figure 6.5).
        self.ckpt_wait = [0.0] * config.n_cores
        self.invalidations_sent = 0
        self.forced_delayed_writebacks = 0
        # Golden architectural image: last value stored to each line, in
        # the simulator's serialization order.  Used by the coherence
        # property tests (config.check_coherence).
        self.golden: dict[int, int] = {}
        # Read on every hit, so held here rather than behind ``config``.
        self.check = config.check_coherence
        self.l1_hit_cycles = config.l1.hit_cycles
        self.l2_hit_cycles = config.l2.hit_cycles
        self.store_hit_cycles = float(config.l2.hit_cycles)

    def tally(self) -> dict[str, int]:
        """The memory-system counters :class:`SimStats` reports."""
        return {
            "l1_hits": sum(l1.n_hits for l1 in self.l1s),
            "l1_misses": sum(l1.n_misses for l1 in self.l1s),
            "l2_hits": sum(l2.n_hits for l2 in self.l2s),
            "l2_misses": sum(l2.n_misses for l2 in self.l2s),
            "fastpath_loads": self.fast_loads,
            "fastpath_stores": self.fast_stores,
            "fastpath_epoch_bumps": sum(self.fastpath_epochs),
            "invalidations": self.invalidations_sent,
            "mem_accesses": self.energy_l1,  # one l1 event per access
            "base_messages": self.network.base_messages,
            "dep_messages": self.network.dep_messages,
        }

    # -- read-only introspection (same accessors as the compiled core) --
    def peek_line(self, pid: int, addr: int) -> Optional[LineState]:
        line = self.l2s[pid].peek(addr)
        if line is None:
            return None
        return LineState(line.addr, line.state, line.value, line.dirty,
                         line.delayed)

    def l1_holds(self, pid: int, addr: int) -> bool:
        return addr in self.l1s[pid]._map

    def resident_lines(self, pid: int) -> int:
        return len(self.l2s[pid])

    def peek_entry(self, addr: int) -> Optional[EntryState]:
        entry = self.directory.peek(addr)
        return None if entry is None else _entry_state(entry)

    def directory_entries(self) -> list[EntryState]:
        return [_entry_state(entry) for entry in self.directory.entries()]

    def energy_events(self) -> dict:
        """The per-class energy-event mapping (Counter-compatible shape).

        Only classes with at least one event appear, matching the old
        ``Counter`` behaviour where a key existed iff it was bumped.
        """
        events = {}
        for key, count in (("l1", self.energy_l1), ("l2", self.energy_l2),
                           ("dir", self.energy_dir),
                           ("dram", self.energy_dram),
                           ("log", self.energy_log),
                           ("wsig", self.energy_wsig),
                           ("depreg", self.energy_depreg)):
            if count:
                events[key] = count
        return events

    # ------------------------------------------------------------------
    # residency services
    # ------------------------------------------------------------------
    def fastpath_epoch(self, pid: int) -> None:
        """Advance ``pid``'s residency epoch.

        Counts every event that can change a line's hit status for
        ``pid`` — eviction, invalidation, downgrade, delayed-writeback
        activity, checkpoint-interval advance, rollback — into
        ``SimStats.fastpath_epoch_bumps``.
        """
        self.fastpath_epochs[pid] += 1

    def _check_load(self, addr: int, value: int) -> None:
        if self.check:
            expected = self.golden.get(addr, 0)
            assert value == expected, (
                f"coherence violation at {addr:#x}: "
                f"loaded {value:#x}, expected {expected:#x}")

    # ------------------------------------------------------------------
    # dependence recording
    # ------------------------------------------------------------------
    def _handle_dependence(self, entry, consumer: int, now: float,
                           piggybacked: bool) -> None:
        """Record producer->consumer through LW-ID (Figure 3.2a)."""
        producer = entry.lw_id
        if producer is None or producer == consumer:
            return
        if not self.tracker.enabled:
            return
        claims = self.tracker.record_dependence(consumer, producer,
                                                entry.addr)
        self.energy_depreg += 1
        self.energy_wsig += 1
        if not piggybacked:
            # Dedicated "are you the last writer?" query + reply.
            self.network.dep_messages += 2
        if claims:
            self.energy_depreg += 1
        else:
            # NO_WR: tell the directory to clear the stale LW-ID.
            self.network.dep_messages += 1
            entry.lw_id = None

    def _stamp_writer(self, entry, pid: int) -> None:
        entry.lw_id = pid
        if self.tracker.enabled:
            self.tracker.on_write(pid, entry.addr)
            self.energy_wsig += 1

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _evict(self, pid: int, victim, now: float) -> None:
        """Handle an L2 victim: write back if dirty, update directory."""
        self.fastpath_epochs[pid] += 1
        addr = victim.addr
        l1 = self.l1s[pid]
        cset = l1._map.pop(addr, None)      # inclusion
        if cset is not None:
            del cset[addr]
            l1._n_resident -= 1
        # ``interval_of``/``delayed_interval_of`` are pure, so the
        # interval is read only for a victim whose writeback logs it.
        tracker = self.tracker
        if victim.delayed:
            interval = tracker.delayed_interval_of(pid)
            tracker.on_line_left_cache(pid, addr, now)
            self.forced_delayed_writebacks += 1
        elif victim.dirty:
            interval = tracker.interval_of(pid)
        if victim.dirty:
            # Dirty displacement between checkpoints: the memory controller
            # logs the old value (Section 3.3.3).
            self.channels.writeback(now, addr, logged=True,
                                    checkpoint=False)
            self.memory.writeback(now, pid, addr, victim.value, interval)
            self.energy_dram += 2
            self.energy_log += 1
        # Writeback data or a PUTS notification: one message either way.
        self.network.base_messages += 1
        self.directory.evict_copy(addr, pid)
        self.energy_dir += 1

    def _install(self, pid: int, addr: int, state: int, value: int,
                 now: float):
        line, victim = self.l2s[pid].insert(addr, state, value)
        if victim is not None:
            self._evict(pid, victim, now)
        self.l1s[pid].fill(addr)
        return line

    def _invalidate_sharers(self, entry, keep: int, now: float) -> int:
        """Invalidate all sharers except ``keep``; returns count."""
        count = 0
        addr = entry.addr
        epochs = self.fastpath_epochs
        for sharer in entry.sharer_list():
            if sharer == keep:
                continue
            epochs[sharer] += 1
            line = self.l2s[sharer].invalidate(addr)
            self.l1s[sharer].invalidate(addr)
            if line is not None and line.delayed:
                # The checkpointed copy must reach memory before the line
                # leaves the cache (Section 4.1).
                self.channels.writeback(now, addr, logged=True,
                                        checkpoint=True)
                self.memory.writeback(
                    now, sharer, addr, line.value,
                    self.tracker.delayed_interval_of(sharer))
                self.tracker.on_line_left_cache(sharer, addr, now)
                self.forced_delayed_writebacks += 1
            count += 1
        self.network.base_messages += 2 * count  # inval + ack
        self.invalidations_sent += count
        entry.sharers = 0
        return count

    def _fetch_from_owner(self, entry, pid: int, now: float,
                          downgrade_to_shared: bool) -> int:
        """Serve a miss from the exclusive owner's L2; returns the value."""
        owner = entry.owner
        self.fastpath_epochs[owner] += 1  # downgrade or invalidation below
        oline = self.l2s[owner].peek(entry.addr)
        assert oline is not None, "directory owner lost the line"
        value = oline.value
        self.energy_l2 += 1
        if oline.delayed:
            # Forced early writeback of a Delayed line (Section 4.1).
            self.channels.writeback(now, entry.addr, logged=True,
                                    checkpoint=True)
            self.memory.writeback(now, owner, entry.addr, oline.value,
                                  self.tracker.delayed_interval_of(owner))
            self.tracker.on_line_left_cache(owner, entry.addr, now)
            self.forced_delayed_writebacks += 1
            oline.delayed = False
            oline.dirty = False
            oline.state = EXCLUSIVE
        if downgrade_to_shared:
            if oline.dirty:
                # Sharing writeback: memory picks up the dirty data (and
                # the controller logs the old value).
                self.channels.writeback(now, entry.addr, logged=True,
                                        checkpoint=False)
                self.memory.writeback(now, owner, entry.addr, oline.value,
                                      self.tracker.interval_of(owner))
                self.energy_dram += 2
                self.energy_log += 1
                oline.dirty = False
            oline.state = L_SHARED
            entry.mode = SHARED
            entry.sharers = (1 << owner) | (1 << pid)
            entry.owner = None
        else:
            # Dirty (or clean-exclusive) transfer; owner invalidated.
            self.l2s[owner].invalidate(entry.addr)
            self.l1s[owner].invalidate(entry.addr)
            entry.owner = pid
        self.network.base_messages += 2  # forward + data
        return value

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def load(self, pid: int, addr: int, now: float) -> float:
        """Execute a load; returns its latency in cycles."""
        self.energy_l1 += 1
        # The L1 and L2 residency maps are probed directly (the same LRU
        # touch and hit/miss counters ``contains``/``lookup`` keep).
        l1 = self.l1s[pid]
        cset = l1._map.get(addr)
        if cset is not None:
            # L1 hit: fixed latency, LRU touch, no directory traffic.
            cset.move_to_end(addr)
            l1.n_hits += 1
            self.fast_loads += 1
            if self.check:
                resident = self.l2s[pid].peek(addr)
                assert resident is not None, "L1/L2 inclusion violated"
                self._check_load(addr, resident.value)
            return self.l1_hit_cycles
        l1.n_misses += 1
        self.energy_l2 += 1
        l2 = self.l2s[pid]
        line = l2._map.get(addr)
        if line is not None:
            # L2 hit (any resident line): refill the L1 presence filter.
            l2._sets[addr % l2.n_sets].move_to_end(addr)
            l2.n_hits += 1
            self.fast_loads += 1
            l1.fill(addr)
            if self.check:
                self._check_load(addr, line.value)
            return self.l2_hit_cycles
        l2.n_misses += 1
        # L2 miss -> home directory.
        config = self.config
        entry = self.directory.entry(addr)
        self.energy_dir += 1
        self.network.base_messages += 2  # request + response
        latency = float(config.l2.hit_cycles)
        if entry.mode == EXCL and entry.owner != pid:
            self._handle_dependence(entry, pid, now, piggybacked=True)
            value = self._fetch_from_owner(entry, pid, now,
                                           downgrade_to_shared=True)
            latency += config.remote_l2_cycles
            self._install(pid, addr, L_SHARED, value, now)
        elif entry.mode == SHARED:
            self._handle_dependence(entry, pid, now, piggybacked=False)
            extra, ckpt_wait = self.channels.demand_access(now, addr)
            self.ckpt_wait[pid] += ckpt_wait
            latency += config.memory_cycles + extra
            value = self.memory.read_line(addr)
            self.energy_dram += 1
            entry.sharers |= 1 << pid
            self._install(pid, addr, L_SHARED, value, now)
        else:  # UNCACHED -> RDX: grant Exclusive, stamp LW-ID (Fig 3.2a)
            self._handle_dependence(entry, pid, now, piggybacked=False)
            extra, ckpt_wait = self.channels.demand_access(now, addr)
            self.ckpt_wait[pid] += ckpt_wait
            latency += config.memory_cycles + extra
            value = self.memory.read_line(addr)
            self.energy_dram += 1
            entry.mode = EXCL
            entry.owner = pid
            entry.sharers = 0
            self._stamp_writer(entry, pid)
            self._install(pid, addr, EXCLUSIVE, value, now)
        self._check_load(addr, value)
        return latency

    def store(self, pid: int, addr: int, value: int, now: float) -> float:
        """Execute a store (write-through L1, write-back L2); returns latency."""
        if self.check:
            self.golden[addr] = value
        self.energy_l1 += 1
        self.energy_l2 += 1
        # One probe of the L2 map (``lookup``'s LRU touch and counters).
        l2 = self.l2s[pid]
        line = l2._map.get(addr)
        if line is None:
            l2.n_misses += 1
        else:
            l2._sets[addr % l2.n_sets].move_to_end(addr)
            l2.n_hits += 1
            if line.state == MODIFIED and not line.delayed:
                # Private hit: already MODIFIED by self, nothing Delayed.
                self.fast_stores += 1
                line.value = value
                return self.store_hit_cycles
        config = self.config
        latency = self.store_hit_cycles
        if line is not None and line.state == MODIFIED:
            # MODIFIED but Delayed: flush the checkpointed copy first.
            latency += self._force_delayed_writeback(pid, line, now)
            line.value = value
            return latency
        if line is not None and line.state == EXCLUSIVE:
            # Silent E -> M upgrade: no directory traffic; LW-ID was
            # already stamped at the exclusive grant (RDX semantics).
            if line.delayed:
                latency += self._force_delayed_writeback(pid, line, now)
            line.state = MODIFIED
            line.dirty = True
            line.value = value
            if self.tracker.enabled:
                self.tracker.on_write(pid, addr)
                self.energy_wsig += 1
            return latency
        entry = self.directory.entry(addr)
        self.energy_dir += 1
        self.network.base_messages += 2
        if line is not None and line.state == L_SHARED:
            # Upgrade: invalidate the other sharers.
            self._handle_dependence(entry, pid, now, piggybacked=False)
            self._invalidate_sharers(entry, keep=pid, now=now)
            entry.mode = EXCL
            entry.owner = pid
            latency += config.remote_l2_cycles
            line.state = MODIFIED
            line.dirty = True
            line.value = value
            self._stamp_writer(entry, pid)
            return latency
        # Full write miss.
        if entry.mode == EXCL and entry.owner != pid:
            self._handle_dependence(entry, pid, now, piggybacked=True)
            self._fetch_from_owner(entry, pid, now, downgrade_to_shared=False)
            latency += config.remote_l2_cycles
        elif entry.mode == SHARED:
            self._handle_dependence(entry, pid, now, piggybacked=False)
            self._invalidate_sharers(entry, keep=pid, now=now)
            extra, ckpt_wait = self.channels.demand_access(now, addr)
            self.ckpt_wait[pid] += ckpt_wait
            latency += config.memory_cycles + extra
            self.energy_dram += 1
        else:
            self._handle_dependence(entry, pid, now, piggybacked=False)
            extra, ckpt_wait = self.channels.demand_access(now, addr)
            self.ckpt_wait[pid] += ckpt_wait
            latency += config.memory_cycles + extra
            self.energy_dram += 1
        entry.mode = EXCL
        entry.owner = pid
        entry.sharers = 0
        self._stamp_writer(entry, pid)
        self._install(pid, addr, MODIFIED, value, now)
        return latency

    def _force_delayed_writeback(self, pid: int, line, now: float) -> float:
        """Write a Delayed line back immediately before a new store hits it.

        The flush takes the priority path (the store is on the critical
        path); the stall is checkpoint-induced, so it feeds IPCDelay.
        """
        self.fastpath_epoch(pid)
        done = self.channels.priority_writeback(now, line.addr)
        self.memory.writeback(now, pid, line.addr, line.value,
                              self.tracker.delayed_interval_of(pid))
        self.energy_dram += 2
        self.energy_log += 1
        line.delayed = False
        self.tracker.on_line_left_cache(pid, line.addr, now)
        self.forced_delayed_writebacks += 1
        stall = max(0.0, done - now)
        self.ckpt_wait[pid] += stall
        return stall

    # ------------------------------------------------------------------
    # checkpoint / rollback services
    # ------------------------------------------------------------------
    def dirty_line_addrs(self, pid: int) -> list[int]:
        return [ln.addr for ln in self.l2s[pid].dirty_lines()]

    def checkpoint_writeback(self, pid: int, now: float) -> tuple[float, int]:
        """Burst-writeback all dirty lines of ``pid`` (stalling variant).

        Lines stay cached clean (state M -> E); returns ``(completion
        time, n_lines)``.
        """
        self.fastpath_epoch(pid)
        dirty = self.l2s[pid].dirty_lines()
        interval = self.tracker.interval_of(pid)
        done = now
        for line in dirty:
            done = max(done, self.channels.writeback(now, line.addr,
                                                     logged=True,
                                                     checkpoint=True))
            self.memory.writeback(now, pid, line.addr, line.value, interval)
            self.energy_dram += 2
            self.energy_log += 1
            line.dirty = False
            line.delayed = False
            if line.state == MODIFIED:
                line.state = EXCLUSIVE
        return done, len(dirty)

    def mark_delayed(self, pid: int) -> int:
        """Set the Delayed bit on all dirty lines (Section 4.1 start)."""
        self.fastpath_epoch(pid)
        count = 0
        for line in self.l2s[pid].dirty_lines():
            line.delayed = True
            count += 1
        return count

    def complete_delayed(self, pid: int, now: float, interval: int) -> int:
        """Drain every still-Delayed line of ``pid`` to memory.

        Channel occupancy for the drain window is accounted separately by
        the scheme (background traffic); here we move the data and log it
        tagged with the checkpointed ``interval`` that produced it.
        """
        self.fastpath_epoch(pid)
        count = 0
        for line in list(self.l2s[pid].lines()):
            if not line.delayed:
                continue
            self.memory.writeback(now, pid, line.addr, line.value, interval)
            self.energy_dram += 2
            self.energy_log += 1
            line.delayed = False
            line.dirty = False
            if line.state == MODIFIED:
                line.state = EXCLUSIVE
            count += 1
        return count

    def invalidate_core(self, pid: int) -> int:
        """Flash-invalidate both cache levels of ``pid`` (rollback)."""
        self.fastpath_epoch(pid)
        if self.config.check_coherence:
            # Dirty data discarded by the invalidation reverts the golden
            # image to whatever memory holds (the log undo that follows
            # refines it further for the logged lines).
            for line in self.l2s[pid].dirty_lines():
                self.golden[line.addr] = self.memory.peek(line.addr)
        self.directory.purge_core(pid, clear_lw=True)
        n = self.l2s[pid].invalidate_all()
        self.l1s[pid].invalidate_all()
        self.energy_l2 += n
        return n


def _entry_state(entry) -> EntryState:
    return EntryState(entry.addr, entry.mode, entry.owner, entry.sharers,
                      entry.lw_id)
