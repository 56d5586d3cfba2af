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

Hot path: the loop runs in C.  The event heap, every core's hot state
(:class:`~repro.sim.cores.CoreTable`), the locks and barriers
(:mod:`repro.sim.sync`) and the trace columns of the compiled IR
(:class:`repro.trace.CompiledTrace`, read in place) live in
``memsys.c``'s ``mem_loop_t``; ``mem_advance`` pops entries, executes
every record but OUTPUT and END against the compiled memory system,
and returns to Python only for what Python owns: a ``DurableCall`` or a
pause popping, an OUTPUT/END record, a BARRIER record whose scheme
hooks can act or a sync record Python refuses
(:meth:`Machine._exec_record`), the ``post_op`` gate, the cycle limit,
an empty heap (deadlock) and a failed memory system.  The heap holds
only a call's key; the ``DurableCall`` itself stays in a Python table.

Runs of consecutive COMPUTE/LOAD/STORE records of one core are fused
into a single heap residency: the core keeps executing without a
push/pop per record for as long as no other heap entry is due at or
before its next record, up to ``fuse_quantum`` records.  Because the
fusion condition is exactly the condition under which the serial heap
discipline would pop the same core again next, the interleaving (and
therefore every statistic) is bit-identical to the unbatched loop;
``fuse_quantum=1`` recovers the one-record-per-pop behaviour and the
parity tests compare the two.  When a batch ends, the core is re-pushed
with the largest sequence number, so the next pop returns exactly what
it would have without the batch.  ``mem_advance`` does that push and
the next pop as one step (replace-top): the entry due first is taken
and the core's new entry fills the root with one descent.  At 64 cores
a residency averages about one record, so that step is the loop's
per-record cost.  A batch the ``post_op`` gate interrupts resumes, with
its remaining budget, unless ``post_op`` stalled the core.
:meth:`Machine.counters` reports the loop's heap pops, residencies,
records per op and returns to Python.

:meth:`Machine._advance_main` is the same loop in Python.  Only
machines on the oracle memory system
(:class:`~repro.coherence.protocol.CoherenceEngine`) run it; it is the
reference the differential tests compare the C loop against.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.coherence.core import CompiledEngine, ffi, lib
from repro.coherence.protocol import overrides
from repro.core.factory import build_scheme, scheme_builder
from repro.core.scheme_base import BaseScheme
from repro.interconnect import Interconnect
from repro.mem import ReviveLog
from repro.params import MachineConfig
from repro.sim.cores import Core, CoreTable
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

_EXEC = lib.EV_EXEC
_DCALL = lib.EV_CALL     # durable descriptor callback (fork-safe)
_PAUSE = lib.EV_PAUSE    # replica-batch pause sentinel (never observable)

#: The returns of ``mem_advance`` that run scheme code.
_SCHEME_RETURNS = (lib.ADV_RECORD, lib.ADV_CALL, lib.ADV_POST_OP)

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


def _loop_field(name: str) -> property:
    """A machine attribute that is a field of the C loop state."""
    return property(lambda self: getattr(self._table.c, name),
                    lambda self, value: setattr(self._table.c, name, value))


class Machine:
    """A manycore running one workload under one checkpointing scheme."""

    #: Simulated time of the last popped event.
    now = _loop_field("now")
    #: Cores that executed their END record.
    _n_done = _loop_field("n_done")

    def __init__(self, config: MachineConfig, workload: WorkloadSpec,
                 faults: Optional[list[tuple[float, int]] | FaultPlan] = None,
                 fuse_quantum: int = DEFAULT_FUSE_QUANTUM):
        if workload.n_threads > config.n_cores:
            raise ValueError(
                f"workload needs {workload.n_threads} threads but the "
                f"machine has {config.n_cores} cores")
        self.fuse_quantum = fuse_quantum
        self.config = config
        self.workload = workload
        self.log = ReviveLog(n_banks=config.n_mem_channels,
                             bin_cycles=max(1, config.checkpoint_interval))
        self.network = Interconnect(config)
        self.scheme = build_scheme(self)
        # The memory system (caches, directory, channels, memory image,
        # undo log) is the compiled core; memory, log and channels are
        # views of it.
        self.engine = CompiledEngine(config, self.log, self.network,
                                     self.scheme)
        self.memory = self.engine.memory
        self.log = self.memory.log
        self.channels = self.engine.channels
        # The loop's state: the event heap and the cores' hot fields.
        # Traces are consumed as the columnar IR; tuple traces are
        # compiled once here (compiled traces pass through untouched).
        self._table = CoreTable(len(workload.traces), workload.locks,
                                workload.barriers)
        self.cores = [Core(pid, compile_trace(trace), self._table)
                      for pid, trace in enumerate(workload.traces)]
        self._bind_loop()
        #: Pending DurableCalls by heap seq (the heap holds the key).
        self._calls: dict[int, DurableCall] = {}
        self.sync = SyncManager(self._table)
        self._gate_scheme()
        if isinstance(faults, FaultPlan):
            faults = list(faults.faults)
        self.faults = FaultInjector(faults or [], config.detection_latency)
        # Phased-run state: "init" (not started), "main" (application
        # loop), "drain" (post-run background work), "done", and
        # "failed" (an exception left the loop mid-step).
        self._phase = "init"
        #: A return of the loop that would run scheme code, held by
        #: ``advance(until_scheme=True)``: ``(reason, pid, kind, arg,
        #: when, seq)``, dispatched first by the next :meth:`advance`.
        self._held: Optional[tuple] = None
        self._until_scheme = False
        self._pause_seq = _PAUSE_SEQ_BASE
        self._limit = float("inf")
        self._max_cycles: Optional[float] = None
        self.stats = SimStats(config=config, scheme=config.scheme,
                              workload=workload.name)
        self.scheme.attach(self)

    def _gate_scheme(self) -> None:
        """Set the ``post_op`` gate and the barrier-hook flag from the
        scheme."""
        # The hot loop only calls post_op once a core has executed
        # post_op_gate() instructions since its checkpoint (the gate is
        # owned by the scheme, next to post_op itself).  Schemes that
        # don't override post_op never need the call at all.
        if overrides(type(self.scheme), BaseScheme, ("post_op",)):
            self._post_op_gate = self.scheme.post_op_gate()
        else:
            self._post_op_gate = float("inf")
        # BARRIER records return to Python only for hooks that can act.
        self._table.c.barrier_hooks = self.scheme.barrier_hooks_act()

    def _bind_loop(self) -> None:
        """Let the compiled memory system read the core rows (the
        oracle reads them through the scheme)."""
        if hasattr(self.engine, "bind_loop"):
            self.engine.bind_loop(self._table)

    @property
    def fuse_quantum(self) -> int:
        """Records fused per heap residency at most (read by every
        :meth:`advance`)."""
        return self._fuse_quantum

    @fuse_quantum.setter
    def fuse_quantum(self, value: int) -> None:
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 1:
            raise ValueError(
                f"fuse_quantum must be an int >= 1, got {value!r}")
        self._fuse_quantum = value

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def push_core(self, core: Core) -> None:
        """(Re)schedule a core at max(core.time, core.not_before)."""
        if not lib.loop_push_core(self._table.c, core.pid):
            raise MemoryError("cannot grow the event heap")

    def schedule_call(self, when: float, call: DurableCall) -> None:
        """Run ``call.fire(self, time)`` at simulated time ``when`` —
        the one scheduling primitive.  Callbacks are descriptors, never
        closures, so :meth:`fork` can deep-copy a pending heap."""
        self._table.c.seq += 1
        self._push_call(when, self._table.c.seq, call)

    def _push_call(self, when: float, seq: int, call: DurableCall) -> None:
        """Queue ``call`` under heap key ``seq``."""
        self._calls[seq] = call
        if not lib.loop_push(self._table.c, when, seq, _DCALL):
            raise MemoryError("cannot grow the event heap")

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

    def advance(self, pause_at: Optional[float] = None,
                until_scheme: bool = False) -> bool:
        """Drive the event loop; returns True if paused, False if done.

        With ``pause_at`` a sentinel heap entry is planted at that time:
        its presence gives the fused executor exactly the fusion horizon
        a pending fault at the same time would (the condition only reads
        the earliest pending time), and popping it suspends the loop
        with the machine in precisely the state a true run with such a
        fault has at the moment the fault fires.  The sentinel never
        advances the clock and is stripped from forks, so it is
        unobservable.

        With ``until_scheme`` the loop also pauses at its first return
        that would run scheme code (the ``post_op`` gate, a call, a
        record Python executes, END included) and holds that return
        (:attr:`held`) instead of handling it: up to there no scheme
        code has run, so a fork re-pointed at another scheme
        (:meth:`rebind_config`) goes on exactly as that scheme's own
        run would.  The next :meth:`advance` of the machine or of a
        fork handles the held return first.  Only the compiled loop
        can hold.

        An exception escaping the loop (a scheme callback's, the cycle
        limit, a deadlock, a failed coherence check) leaves the machine
        mid-step; it then refuses to advance again.
        """
        if self._phase == "init":
            raise RuntimeError("machine not started")
        if self._phase == "failed":
            raise RuntimeError(
                "machine failed in an earlier advance(); it cannot go on")
        if pause_at is not None:
            self._pause_seq -= 1
            if not lib.loop_push(self._table.c, pause_at, self._pause_seq,
                                 _PAUSE):
                raise MemoryError("cannot grow the event heap")
        compiled = hasattr(self.engine, "advance")
        if until_scheme and not compiled:
            raise NotImplementedError(
                "only the compiled loop can hold a scheme return")
        self._until_scheme = until_scheme
        try:
            # The compiled memory system runs the loop itself; the
            # oracle has no ``advance`` and runs the Python loop.
            main = (self._advance_compiled if compiled
                    else self._advance_main)
            if self._phase == "main" and not main():
                return True
            if self._phase == "drain" and not self._advance_drain():
                return True
        except BaseException:
            self._phase = "failed"
            raise
        return False

    def _advance_compiled(self) -> bool:
        """Application loop on the compiled memory system; returns False
        when paused mid-phase.

        ``mem_advance`` runs the loop and comes back only for an event
        Python owns; each is handled here, then the loop resumes (a
        batch suspended at the ``post_op`` gate picks up where it
        stopped).  With ``until_scheme`` the first return that would
        run scheme code is held instead (:meth:`advance`).
        """
        until_scheme = self._until_scheme
        if self._held is not None:
            reason, pid, kind, arg, when, seq = self._held
            self._held = None
            self._handle(reason, pid, kind, arg, when, seq)
        advance = self.engine.advance
        loop = self._table.c
        event = ffi.new("mem_event_t *")
        while True:
            reason = advance(loop, self._limit, self._post_op_gate,
                             self._fuse_quantum, event)
            if reason in _SCHEME_RETURNS:
                if until_scheme:
                    self._held = (reason, event.pid, event.kind, event.arg,
                                  event.when, event.seq)
                    return False
                self._handle(reason, event.pid, event.kind, event.arg,
                             event.when, event.seq)
            elif reason == lib.ADV_DONE:
                self._phase = "drain"
                return True
            elif reason == lib.ADV_PAUSE:
                return False
            elif reason == lib.ADV_LIMIT:
                raise self._cycle_limit_exceeded()
            elif reason == lib.ADV_DEADLOCK:
                self._diagnose_deadlock()
            else:
                self.engine.raise_failure()

    def _handle(self, reason: int, pid: int, kind: int, arg: int,
                when: float, seq: int) -> None:
        """Run the scheme code a return of the loop asks for."""
        if reason == lib.ADV_RECORD:
            self._exec_record(self.cores[pid], kind, arg, when)
        elif reason == lib.ADV_CALL:
            self._calls.pop(seq).fire(self, when)
        else:
            self.scheme.post_op(self.cores[pid], when)

    @property
    def held(self) -> bool:
        """Whether a return that would run scheme code is held
        (``advance(until_scheme=True)``)."""
        return self._held is not None

    def _advance_main(self) -> bool:
        """The reference loop, in Python: machines on the oracle memory
        system run it.  Returns False when paused mid-phase.

        It is ``mem_advance`` statement for statement, over the same
        heap and the same core rows; the differential tests hold the
        two to equal results.
        """
        limit = self._limit
        loop = self._table.c
        pop = lib.loop_pop
        next_when = lib.loop_next_when
        cores = self.cores
        scheme = self.scheme
        engine_load, engine_store = self.engine.load, self.engine.store
        post_op_gate = self._post_op_gate
        quantum = self._fuse_quantum
        n_cores = len(cores)
        event = ffi.new("mem_event_t *")
        while loop.n_done < n_cores:
            if not pop(loop, event):
                self._diagnose_deadlock()
            when = event.when
            kind = event.kind
            if kind == _PAUSE:
                # Unobservable: the clock stays at the last real event
                # (a true run only advances it on real pops).
                return False
            if when > loop.now:
                loop.now = when
            if when > limit:
                raise self._cycle_limit_exceeded()
            if kind != _EXEC:
                self._calls.pop(event.seq).fire(self, when)
                continue
            pid = event.pid
            core = cores[pid]
            if core.done or core.blocked is not None \
                    or event.arg != core.epoch:
                continue  # stale entry
            if when < core.not_before:
                self.push_core(core)
                continue
            # -- trace execution: a batch of records for ``core`` ----------
            trace = core.trace
            ops, args, n_records = trace.ops, trace.args, len(trace)
            t = core.time
            now = when if when >= t else t
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
                op = ops[ip] if ip < n_records else END
                if op == COMPUTE:
                    arg = args[ip]
                    core.time = now + arg
                    core.instr_count += arg
                    core.instr_since_ckpt += arg
                    core.busy += arg
                    core.ip = ip + 1
                elif op == LOAD or op == STORE:
                    if op == LOAD:
                        latency = engine_load(pid, args[ip], now)
                    else:
                        # The store's unique value (Core.next_store_value).
                        seq = core.store_seq + 1
                        core.store_seq = seq
                        latency = engine_store(pid, args[ip],
                                               core.store_tag | seq, now)
                    core.time = now + latency
                    core.instr_count += 1
                    core.instr_since_ckpt += 1
                    core.busy += latency
                    core.ip = ip + 1
                else:
                    self._exec_record(core, op,
                                      0 if op == END else args[ip], now)
                    break
                # -- fused continuation ------------------------------------
                budget -= 1
                t = core.time
                nb = core.not_before
                when = t if t >= nb else nb
                if budget <= 0 or next_when(loop) <= when:
                    self.push_core(core)
                    break
                # The clock is not advanced record by record: nothing
                # can observe it mid-batch (callbacks only run from
                # pops), and the next pop re-synchronizes it.
                if when > limit:
                    loop.now = when
                    raise self._cycle_limit_exceeded()
                now = when
        self._phase = "drain"
        return True

    def _exec_record(self, core: Core, op: int, arg: int,
                     now: float) -> None:
        """Execute ``core``'s BARRIER/LOCK/UNLOCK/OUTPUT/END record at
        ``now``; the core's batch ends with it."""
        ip = core.ip
        if op == BARRIER or op == LOCK or op == UNLOCK:
            sync = self.sync
            result = (sync.barrier_arrive if op == BARRIER else
                      sync.lock_acquire if op == LOCK else
                      sync.lock_release)(self, core, arg, now)
            if result is None:
                return  # blocked; ip advances on release or grant
            core.ip = ip + 1
            core.time = result
            self.push_core(core)
        elif op == OUTPUT:
            # Output I/O must be preceded by a checkpoint (Sec 6.4).
            after = self.scheme.on_output(core, now)
            if after is None:
                # Busy (e.g. a delayed-writeback drain in flight): the
                # scheme set not_before; retry the same record then.
                self.push_core(core)
                return
            io_cycles = self.config.io_cycles
            core.time = after + io_cycles
            core.busy += io_cycles
            core.instr_count += 1
            core.instr_since_ckpt += 1
            core.ip = ip + 1
            self.push_core(core)
        elif op == END:
            core.done = True
            core.stats.end_time = core.time
            self._n_done += 1
            self.scheme.on_core_done(core, now)
        else:  # pragma: no cover - malformed trace
            raise ValueError(f"unknown trace op {(op, arg)!r}")

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
        loop = self._table.c
        event = ffi.new("mem_event_t *")
        while lib.loop_pop(loop, event):
            kind = event.kind
            if kind == _PAUSE:
                return False
            if kind == _DCALL:
                when = event.when
                if when > loop.now:
                    loop.now = when
                if when > limit:
                    raise self._cycle_limit_exceeded()
                self._calls.pop(event.seq).fire(self, when)
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
            # The trace columns are never mutated: every replica reads
            # the same objects (the C loop reads them in place).
            memo[id(core.trace)] = core.trace
        clone = copy.deepcopy(self, memo)
        clone.drop_pauses()
        return clone

    def drop_pauses(self) -> None:
        """Remove every pause sentinel still planted: they belong to a
        replica batch's schedule, not to the run that goes on from
        here (a fork, or the replica that takes the leader over)."""
        lib.loop_drop(self._table.c, _PAUSE)

    def __deepcopy__(self, memo) -> "Machine":
        """A deep copy whose memory system reads the copy's core rows
        (a cloned engine still points at the original's)."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(vars(self), memo))
        clone._bind_loop()
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

        It also groups the schemes of one prefix family
        (:func:`~repro.core.factory.prefix_family`), whose runs agree
        until scheme code first runs.  A replica leaving there takes
        its own scheme: one built by the same class reads the new
        ``config.scheme`` lazily (``BaseScheme.use_dwb``), and another
        class replaces the scheme (:meth:`_switch_scheme`).
        """
        previous = self.config.scheme
        self.config = config
        self.stats.config = config
        self.stats.scheme = config.scheme
        self.scheme.config = config
        if scheme_builder(config.scheme) is not scheme_builder(previous):
            self._switch_scheme()

    def _switch_scheme(self) -> None:
        """Go on under another scheme class (a fork of a leader of the
        same prefix family, :func:`~repro.core.factory.prefix_family`).

        Exact only while no scheme code has acted: the machine must be
        held at or before its first scheme return, with no checkpoint
        taken.  The new scheme attaches to the core rows as it does at
        construction, the compiled core hands its hooks to it (the
        schemes of a family run the same ones) and the gate follows the
        new ``post_op``.  Rows keep their interval: NONE, the one scheme
        a fork switches to, closes no interval, so the interval its log
        entries carry is never read.
        """
        if self.stats.checkpoints or self.stats.rollbacks or any(
                len(core.snapshots) > 1 for core in self.cores):
            raise RuntimeError("a machine can change its scheme only "
                               "before its first checkpoint")
        self.scheme = build_scheme(self)
        self.scheme.attach(self)
        self.engine.rebind_tracker(self.scheme)
        self._gate_scheme()

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
            self._push_call(event.detect_time, _FAULT_SEQ_BASE + index,
                            DurableCall("machine", "_deliver_fault_at",
                                        (index,)))
        # A replica forked past its drain (or even past the final pop)
        # still owes its faults an undelivered verdict: re-open the
        # drain so advance() pops them.
        if self._phase == "done" and self._table.c.heap_n:
            self._phase = "drain"

    # ------------------------------------------------------------------
    # run assembly
    # ------------------------------------------------------------------
    def finalize(self) -> SimStats:
        stats = self.stats
        engine = self.engine
        counts = engine.tally()
        for core in self.cores:
            core.finish()
        stats.cores = [core.stats for core in self.cores]
        for pid, core in enumerate(self.cores):
            core.stats.ipc_delay += engine.ckpt_wait[pid]
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
        stats.base_messages = counts["base_messages"]
        stats.dep_messages = counts["dep_messages"]
        stats.protocol_messages = self.network.protocol_messages
        stats.log_bytes = self.log.total_bytes
        stats.max_interval_log_bytes = self.log.max_interval_bytes()
        stats.injected_faults = len(self.faults.events)
        stats.undelivered_faults = (len(self.faults.undelivered) +
                                    self.faults.outstanding)
        self.scheme.finalize(stats)
        stats.energy_events = engine.energy_events()
        for name in ("l1_hits", "l1_misses", "l2_hits", "l2_misses",
                     "fastpath_loads", "fastpath_stores",
                     "fastpath_epoch_bumps", "invalidations",
                     "mem_accesses"):
            setattr(stats, name, counts[name])
        # Useful-work accounting audit: with the golden coherence checker
        # on (every unit-test machine), also assert that the four cycle
        # buckets partition runtime x n_cores exactly and stay
        # non-negative — a double-charged stall window fails the run
        # right here instead of skewing a campaign table later.
        if self.config.check_coherence:
            stats.verify_cycle_accounting()
        return stats

    def counters(self) -> dict[str, int]:
        """The machine loop's counters (:meth:`CoreTable.counters`)."""
        return self._table.counters()

    @property
    def finished(self) -> bool:
        """True once :meth:`advance` has drained every event."""
        return self._phase == "done"
