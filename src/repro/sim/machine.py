"""The manycore machine: event loop, trace execution, run assembly.

Execution model: a min-heap orders cores by local time (ties broken by
push order); one trace record executes atomically at its timestamp
against the shared structures (caches, directory, channels, log).
Checkpointing schemes inject delays through ``core.not_before`` and
scheduled callbacks; fault injection reveals faults after the detection
latency L and hands them to the scheme's rollback protocol.  Every
scheduled callback is a :class:`~repro.sim.events.DurableCall`
descriptor (``schedule_call``), never a closure, so a paused machine
can always be forked (:meth:`Machine.fork`).

Hot path: traces are consumed as the columnar IR of
:class:`repro.trace.CompiledTrace` — the executor reads parallel
``ops``/``args`` columns (``op = ops[ip]; arg = args[ip]``) instead of
unpacking per-record tuples — and runs of consecutive
COMPUTE/LOAD/STORE records of one core are fused into a single heap
residency: the core keeps executing without a push/pop per record for
as long as no other heap event is due at or before its next record, up
to ``fuse_quantum`` records.  Because the
fusion condition is exactly the condition under which the serial heap
discipline would pop the same core again next, the interleaving (and
therefore every statistic) is bit-identical to the unbatched loop;
``fuse_quantum=1`` recovers the original one-record-per-pop behaviour
and the parity tests compare the two.  When a batch ends, the core is
re-pushed and the next entry popped in one ``heapq.heappushpop`` sift:
the re-pushed entry carries the largest sequence number, so the call
returns exactly what a push followed by a pop would.  At 64 cores
another core is nearly always due first, so most batches hold one
record and this single sift is the per-record heap cost.
"""

from __future__ import annotations

import copy
import heapq
from typing import Optional

from repro.coherence.protocol import CoherenceEngine
from repro.core.factory import build_scheme
from repro.core.scheme_base import BaseScheme
from repro.interconnect import Interconnect
from repro.mem import MainMemory, MemoryChannels, ReviveLog
from repro.params import MachineConfig
from repro.sim.cores import Core
from repro.sim.events import DurableCall
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.stats import SimStats
from repro.sim.sync import SyncManager
from repro.trace import (
    BARRIER,
    COMPUTE,
    END,
    LOAD,
    LOCK,
    OUTPUT,
    STORE,
    UNLOCK,
    compile_trace,
)
from repro.workloads.base import WorkloadSpec

_EXEC = 0
_DCALL = 2     # durable descriptor callback (fork-safe)
_PAUSE = 3     # replica-batch pause sentinel (never observable)

#: Sentinel seq base: more negative than any fault seq, so a pause
#: fires before a same-time fault would in a true run (the fork then
#: replays the fault first inside the spilled machine).
_PAUSE_SEQ_BASE = -(10 ** 15)

#: Fork-injected fault events sort after sentinels but before every
#: normal heap entry at the same timestamp — exactly the order the
#: scalar run produces by scheduling faults first (seqs 1..F).
_FAULT_SEQ_BASE = -(10 ** 9)


class SimulationDeadlock(RuntimeError):
    """No runnable core remains while work is outstanding."""


#: Records fused per heap residency before a forced re-push (fairness
#: backstop only; correctness never depends on it).
DEFAULT_FUSE_QUANTUM = 256


class Machine:
    """A manycore running one workload under one checkpointing scheme."""

    def __init__(self, config: MachineConfig, workload: WorkloadSpec,
                 faults: Optional[list[tuple[float, int]] | FaultPlan] = None,
                 fuse_quantum: int = DEFAULT_FUSE_QUANTUM):
        if workload.n_threads > config.n_cores:
            raise ValueError(
                f"workload needs {workload.n_threads} threads but the "
                f"machine has {config.n_cores} cores")
        self.config = config
        self.workload = workload
        self.log = ReviveLog(n_banks=config.n_mem_channels,
                             bin_cycles=max(1, config.checkpoint_interval))
        self.memory = MainMemory(self.log)
        self.channels = MemoryChannels(config)
        self.network = Interconnect(config)
        self.scheme = build_scheme(self)
        self.engine = CoherenceEngine(config, self.channels, self.memory,
                                      self.network, self.scheme)
        # Traces are consumed as the columnar IR; tuple traces are
        # compiled once here (compiled traces pass through untouched).
        self.cores = [Core(pid, compile_trace(trace))
                      for pid, trace in enumerate(workload.traces)]
        self.sync = SyncManager()
        for lock in workload.locks:
            self.sync.add_lock(lock.lock_id, lock.line)
        for barrier in workload.barriers:
            self.sync.add_barrier(barrier.barrier_id, barrier.participants,
                                  barrier.count_line, barrier.flag_line)
        if isinstance(faults, FaultPlan):
            faults = list(faults.faults)
        self.faults = FaultInjector(faults or [], config.detection_latency)
        if fuse_quantum < 1:
            raise ValueError("fuse_quantum must be >= 1")
        self.fuse_quantum = fuse_quantum
        # The hot loop only calls post_op once a core has executed
        # post_op_gate() instructions since its checkpoint (the gate is
        # owned by the scheme, next to post_op itself).  Schemes that
        # don't override post_op never need the call at all.
        if type(self.scheme).post_op is BaseScheme.post_op:
            self._post_op_gate = float("inf")
        else:
            self._post_op_gate = self.scheme.post_op_gate()
        self._heap: list[tuple] = []
        self._seq = 0
        self._n_done = 0
        # Phased-run state: "init" (not started), "main" (application
        # loop), "drain" (post-run background work), "done".
        self._phase = "init"
        self._pause_seq = _PAUSE_SEQ_BASE
        self._limit = float("inf")
        self._max_cycles: Optional[float] = None
        self.now = 0.0
        self.stats = SimStats(config=config, scheme=config.scheme,
                              workload=workload.name)
        self.scheme.attach(self)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def push_core(self, core: Core) -> None:
        """(Re)schedule a core at max(core.time, core.not_before)."""
        if core.done or core.blocked is not None:
            return
        core.epoch += 1
        self._seq += 1
        when = max(core.time, core.not_before)
        heapq.heappush(self._heap,
                       (when, self._seq, _EXEC, core.pid, core.epoch))

    def schedule_call(self, when: float, call: DurableCall) -> None:
        """Run ``call.fire(self, time)`` at simulated time ``when`` —
        the one scheduling primitive.  Callbacks are descriptors, never
        closures, so :meth:`fork` can deep-copy a pending heap."""
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, _DCALL, call, None))

    def _deliver_fault_at(self, index: int, when: float) -> None:
        """Durable fault delivery: event ``index`` of the injector."""
        self._deliver_fault(self.faults.events[index], when)

    def _deliver_fault(self, event: FaultEvent, when: float) -> None:
        """Heap callback firing exactly at ``event.detect_time``.

        After the application has finished (the post-run drain loop)
        there is no execution left to roll back into, so the fault is
        recorded as undelivered instead of silently vanishing — the
        stats then refuse to report a fake 0-cycle recovery.
        """
        if self._n_done >= len(self.cores):
            self.faults.mark_undelivered(event)
            return
        self.faults.mark_delivered(event)
        self.scheme.handle_fault(event.pid, event.detect_time)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[float] = None) -> SimStats:
        """Drive the event loop to completion and assemble the stats.

        Equivalent to ``start(); advance(); finalize()`` — the phased
        form exists so the replica-batch executor
        (:mod:`repro.sim.vector`) can pause a fault-free leader machine
        at each replica's first fault-detection time and fork it.
        """
        self.start(max_cycles)
        self.advance()
        return self.finalize()

    def start(self, max_cycles: Optional[float] = None) -> None:
        """Schedule the initial events; the machine becomes advanceable."""
        if self._phase != "init":
            raise RuntimeError(f"machine already started ({self._phase})")
        self._max_cycles = max_cycles
        self._limit = max_cycles if max_cycles is not None else float("inf")
        # Faults are first-class heap events at their exact detection
        # times: the fusion condition consults the heap, so a batch
        # always breaks before a fault is due and no core can commit
        # work past a detect_time before the scheme hears about it.
        # Scheduled before the initial core pushes so a fault beats any
        # trace record carrying the same timestamp.
        for index, event in enumerate(self.faults.events):
            self.schedule_call(event.detect_time,
                               DurableCall("machine", "_deliver_fault_at",
                                           (index,)))
        for core in self.cores:
            if not core.trace:
                core.done = True
                self._n_done += 1
            else:
                self.push_core(core)
        self._phase = "main"

    def _cycle_limit_exceeded(self) -> RuntimeError:
        return RuntimeError(
            f"simulation exceeded {self._max_cycles:,.0f} cycles")

    def advance(self, pause_at: Optional[float] = None) -> bool:
        """Drive the event loop; returns True if paused, False if done.

        With ``pause_at`` a sentinel heap entry is planted at that time:
        its presence gives the fused executor exactly the fusion horizon
        a pending fault at the same time would (the condition only reads
        ``heap[0][0]``), and popping it suspends the loop with the
        machine in precisely the state a true run with such a fault has
        at the moment the fault fires.  The sentinel never advances the
        clock and is stripped from forks, so it is unobservable.

        The trace executor is inlined into the pop loop (every local is
        bound once per call, not once per record — each core's trace
        columns and stats as one tuple unpacked per pop): on
        each pop the owning core executes records until it blocks,
        stalls, or another heap event becomes due at or before its next
        record — the fused continuation re-runs the per-pop bookkeeping
        (clock, cycle guard) inline, so results are bit-identical to the
        one-record-per-pop discipline (``fuse_quantum=1``).  A batch
        that ends on such a due event re-pushes its core and takes the
        next entry in one ``heappushpop``.  Fault
        delivery needs no bookkeeping here: faults are heap events, so
        they both break fusion and pop at their exact detection times.
        """
        if self._phase == "init":
            raise RuntimeError("machine not started")
        if pause_at is not None:
            self._pause_seq -= 1
            heapq.heappush(self._heap,
                           (pause_at, self._pause_seq, _PAUSE, None, None))
        if self._phase == "main" and not self._advance_main():
            return True
        if self._phase == "drain" and not self._advance_drain():
            return True
        return False

    def _advance_main(self) -> bool:
        """Application loop; returns False when paused mid-phase.

        Every LOAD/STORE record enters the coherence engine, which owns
        hit handling as a private cache controller would: hits are
        served at the head of :meth:`CoherenceEngine.load`/``store`` and
        only misses reach the directory.
        """
        limit = self._limit
        heap = self._heap
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        cores = self.cores
        scheme = self.scheme
        sync = self.sync
        engine_load = self.engine.load
        engine_store = self.engine.store
        post_op_gate = self._post_op_gate
        io_cycles = self.config.io_cycles
        quantum = self.fuse_quantum
        n_cores = len(cores)
        # Per-core hot locals, bound once per call and unpacked as one
        # tuple per pop (trace columns are never rebound).
        hot = [(core, core.ops, core.args, len(core.ops), core.stats,
                core.store_tag) for core in cores]
        # The next heap entry to process when a fused batch re-pushed
        # its core through heappushpop (None: pop one).
        entry = None
        while self._n_done < n_cores:
            if entry is None:
                if not heap:
                    self._diagnose_deadlock()
                entry = heappop(heap)
            when, _, kind, a, b = entry
            entry = None
            if kind != _EXEC:
                if kind == _PAUSE:
                    # Unobservable: the clock stays at the last real
                    # event (a true run only advances it on real pops).
                    return False
                if when > self.now:
                    self.now = when
                if when > limit:
                    raise self._cycle_limit_exceeded()
                a.fire(self, when)
                continue
            if when > self.now:
                self.now = when
            if when > limit:
                raise self._cycle_limit_exceeded()
            core, ops, args, n_records, stats, store_tag = hot[a]
            if core.done or core.blocked is not None or b != core.epoch:
                continue  # stale entry
            if when < core.not_before:
                self.push_core(core)
                continue
            # -- trace execution: a batch of records for ``core`` ----------
            t = core.time
            now = when if when >= t else t
            pid = a
            budget = quantum
            while True:
                # Checkpoint-initiation decisions run here, at the core's
                # true position in the global time order — not at the
                # end-time of a long record committed eagerly during an
                # earlier pop.  Below the interval threshold post_op is a
                # guaranteed no-op (BaseScheme contract), so skip it.
                if core.instr_since_ckpt >= post_op_gate:
                    scheme.post_op(core, now)
                    if core.not_before > now:
                        self.push_core(core)  # back-off / ckpt stall
                        break
                ip = core.ip
                if ip < n_records:
                    op = ops[ip]
                    arg = args[ip]
                else:
                    op = END
                if op == COMPUTE:
                    core.time = now + arg
                    core.instr_count += arg
                    core.instr_since_ckpt += arg
                    stats.busy += arg
                    core.ip = ip + 1
                elif op == LOAD:
                    latency = engine_load(pid, arg, now)
                    core.time = now + latency
                    core.instr_count += 1
                    core.instr_since_ckpt += 1
                    stats.busy += latency
                    core.ip = ip + 1
                elif op == STORE:
                    # The store's unique value (Core.next_store_value).
                    seq = core.store_seq + 1
                    core.store_seq = seq
                    latency = engine_store(pid, arg, store_tag | seq, now)
                    core.time = now + latency
                    core.instr_count += 1
                    core.instr_since_ckpt += 1
                    stats.busy += latency
                    core.ip = ip + 1
                elif op == BARRIER:
                    result = sync.barrier_arrive(self, core, arg, now)
                    if result is None:
                        break  # blocked; ip advances on release
                    core.ip = ip + 1
                    core.time = result
                    self.push_core(core)
                    break
                elif op == LOCK:
                    result = sync.lock_acquire(self, core, arg, now)
                    if result is None:
                        break  # blocked; ip advances on grant
                    core.ip = ip + 1
                    core.time = result
                    self.push_core(core)
                    break
                elif op == UNLOCK:
                    core.time = sync.lock_release(self, core, arg, now)
                    core.ip = ip + 1
                    self.push_core(core)
                    break
                elif op == OUTPUT:
                    # Output I/O must be preceded by a checkpoint (Sec 6.4).
                    after = scheme.on_output(core, now)
                    if after is None:
                        # Busy (e.g. a delayed-writeback drain in flight):
                        # the scheme set not_before; retry the same record
                        # then.
                        self.push_core(core)
                        break
                    core.time = after + io_cycles
                    stats.busy += io_cycles
                    core.instr_count += 1
                    core.instr_since_ckpt += 1
                    core.ip = ip + 1
                    self.push_core(core)
                    break
                elif op == END:
                    core.done = True
                    stats.end_time = core.time
                    self._n_done += 1
                    scheme.on_core_done(core, now)
                    break
                else:  # pragma: no cover - malformed trace
                    raise ValueError(f"unknown trace op {(op, arg)!r}")
                # -- fused continuation ------------------------------------
                budget -= 1
                t = core.time
                nb = core.not_before
                when = t if t >= nb else nb
                if budget <= 0 or (heap and heap[0][0] <= when):
                    # Re-push and pop in one sift: the new entry has the
                    # largest seq, so this returns exactly what a push
                    # followed by a pop would.
                    epoch = core.epoch + 1
                    core.epoch = epoch
                    seq = self._seq + 1
                    self._seq = seq
                    entry = heappushpop(heap,
                                        (when, seq, _EXEC, pid, epoch))
                    break
                # ``self.now`` is not advanced record-by-record: nothing
                # can observe it mid-batch (callbacks only run from pops),
                # and the next pop re-synchronizes it.
                if when > limit:
                    self.now = when
                    raise self._cycle_limit_exceeded()
                now = when
        self._phase = "drain"
        return True

    def _advance_drain(self) -> bool:
        """Post-run drain; returns False when paused mid-phase.

        The application finished, but background work (delayed-writeback
        drains) may still be scheduled: let it complete so checkpoints
        close and the log/markers are consistent.  The cycle limit is
        enforced here too — a runaway background-callback chain must
        not spin past ``max_cycles`` silently just because the
        application part of the run is over.  Fault events popping here
        (detection after the application end) are recorded as
        undelivered by ``_deliver_fault``.
        """
        limit = self._limit
        heap = self._heap
        while heap:
            when, _, kind, a, _ = heapq.heappop(heap)
            if kind == _PAUSE:
                return False
            if kind == _DCALL:
                if when > self.now:
                    self.now = when
                if when > limit:
                    raise self._cycle_limit_exceeded()
                a.fire(self, when)
        self._phase = "done"
        return True

    def _diagnose_deadlock(self) -> None:
        states = []
        for core in self.cores:
            if not core.done:
                states.append(f"core {core.pid}: blocked={core.blocked} "
                              f"site={core.block_site} ip={core.ip}")
        raise SimulationDeadlock("no runnable core; waiting: " +
                                 "; ".join(states))

    # ------------------------------------------------------------------
    # replica forking (vectorized campaign batches)
    # ------------------------------------------------------------------
    def fork(self) -> "Machine":
        """A paused machine cloned mid-run, bit-identical from here on.

        The clone shares the immutable bulk (config, workload, trace
        columns) with the parent and deep-copies all mutable simulation
        state (caches, directory, log, heap, cores, scheme, RNG), so
        advancing the clone is indistinguishable from advancing a
        machine that was *constructed* with the clone's state.  Pause
        sentinels are stripped — they belong to the parent's schedule.
        Every pending callback is a :class:`DurableCall`, which re-binds
        to whichever machine fires it, so the clone's heap fires into
        the clone.
        """
        memo = {id(self.config): self.config,
                id(self.workload): self.workload}
        for core in self.cores:
            # The trace columns (and their tolist'd hot-loop mirrors)
            # are never mutated: every replica reads the same objects.
            memo[id(core.trace)] = core.trace
            if core.ops is not None:
                memo[id(core.ops)] = core.ops
                memo[id(core.args)] = core.args
        clone = copy.deepcopy(self, memo)
        if any(entry[2] == _PAUSE for entry in clone._heap):
            clone._heap = [entry for entry in clone._heap
                           if entry[2] != _PAUSE]
            heapq.heapify(clone._heap)
        return clone

    def rebind_config(self, config: MachineConfig) -> None:
        """Re-point a forked replica at its *own* resolved config.

        The batch planner only groups keys whose configs differ in
        fields the scheme declared **fault-free invariant**
        (``FAULT_FREE_INVARIANT_OVERRIDES``, e.g. ``detection_latency``
        for Global/NONE): the shared leader prefix is bit-identical
        under either config, but everything that runs *after* the fork
        — fault detection times (:meth:`install_faults` re-reads
        ``self.config``), recovery's safe-snapshot search and IRec
        construction (both read ``scheme.config`` lazily), and the
        final stats equality (``SimStats.config``) — must see the
        replica's config, not the leader's.  Invariant fields must be
        read lazily through these references; capturing one at
        construction time would make this rebind a silent no-op.
        """
        self.config = config
        self.stats.config = config
        self.scheme.config = config

    def install_faults(self, faults: list[tuple[float, int]] | FaultPlan,
                       ) -> None:
        """Arm a forked replica with its fault campaign.

        The injected heap events carry sequence numbers below every
        live entry's, so at equal timestamps a fault still fires before
        any trace record or drain callback — the exact order the scalar
        run establishes by scheduling faults first (seqs ``1..F``).
        Pending faults must all lie at or after the fork point; the
        parent leader is paused at the batch's earliest detection time,
        so this holds by construction for every replica.
        """
        if self.faults.events:
            raise RuntimeError("machine already has faults installed")
        if isinstance(faults, FaultPlan):
            faults = list(faults.faults)
        self.faults = FaultInjector(faults or [],
                                    self.config.detection_latency)
        for index, event in enumerate(self.faults.events):
            heapq.heappush(
                self._heap,
                (event.detect_time, _FAULT_SEQ_BASE + index, _DCALL,
                 DurableCall("machine", "_deliver_fault_at", (index,)),
                 None))
        # A replica forked past its drain (or even past the final pop)
        # still owes its faults an undelivered verdict: re-open the
        # drain so advance() pops them.
        if self._phase == "done" and self._heap:
            self._phase = "drain"

    # ------------------------------------------------------------------
    # run assembly
    # ------------------------------------------------------------------
    def finalize(self) -> SimStats:
        stats = self.stats
        stats.cores = [core.stats for core in self.cores]
        for pid, core in enumerate(self.cores):
            core.stats.ipc_delay += self.engine.ckpt_wait[pid]
            core.stats.end_time = max(core.stats.end_time, core.time)
        stats.runtime = max((c.end_time for c in stats.cores), default=0.0)
        # Checkpoint-stall windows charged past a core's last committed
        # record (a final checkpoint's sync/writeback tail, an
        # end-of-run back-off loop) displaced no execution: refund the
        # overhang so the overhead bucket stays inside the run's
        # runtime x n_cores cycle budget.
        for core in self.cores:
            core.refund_stall_overhang()
        stats.total_instructions = sum(c.instr_count for c in self.cores)
        for core in self.cores:
            core.stats.instructions = core.instr_count
        stats.base_messages = self.network.base_messages
        stats.dep_messages = self.network.dep_messages
        stats.protocol_messages = self.network.protocol_messages
        stats.log_bytes = self.log.total_bytes
        stats.max_interval_log_bytes = self.log.max_interval_bytes()
        stats.injected_faults = len(self.faults.events)
        stats.undelivered_faults = (len(self.faults.undelivered) +
                                    self.faults.outstanding)
        self.scheme.finalize(stats)
        engine = self.engine
        stats.energy_events = engine.energy_events()
        stats.l1_hits = sum(l1.n_hits for l1 in engine.l1s)
        stats.l1_misses = sum(l1.n_misses for l1 in engine.l1s)
        stats.l2_hits = sum(l2.n_hits for l2 in engine.l2s)
        stats.l2_misses = sum(l2.n_misses for l2 in engine.l2s)
        stats.fastpath_loads = engine.fast_loads
        stats.fastpath_stores = engine.fast_stores
        stats.fastpath_epoch_bumps = sum(engine.fastpath_epochs)
        stats.invalidations = engine.invalidations_sent
        stats.mem_accesses = engine.energy_l1  # one l1 event per load+store
        # Useful-work accounting audit: with the golden coherence checker
        # on (every unit-test machine), also assert that the four cycle
        # buckets partition runtime x n_cores exactly and stay
        # non-negative — a double-charged stall window fails the run
        # right here instead of skewing a campaign table later.
        if self.config.check_coherence:
            stats.verify_cycle_accounting()
        return stats

    @property
    def finished(self) -> bool:
        """True once :meth:`advance` has drained every event."""
        return self._phase == "done"
