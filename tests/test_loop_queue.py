"""The machine loop's event queue, held to independent references.

The oracle loop (``Machine._advance_main``) pops through the same C
queue as ``mem_advance``, so the differential suites alone would not see
a queue that pops in the wrong order.  Here:

* the queue API (``loop_push``, ``loop_push_core``, ``loop_pop``,
  ``loop_next_when``, ``loop_drop``, ``loop_clone``) against a
  ``heapq`` of ``(when, seq, kind, pid, arg)`` tuples, with many equal
  times, stale core entries, fault entries under fresh seqs (as
  ``Machine.start`` queues them) and the negative pause and installed
  fault seqs, and
  with times around the calendar's window (its edges, far ahead,
  behind a base that heap-tier pops moved), after every operation
  checking the calendar's layout: each bucket sorted and in the
  window, the bitmap, the heap tier's order, the total ``heap_n``;
* ``mem_advance`` on COMPUTE-only traces against a Python model of the
  loop in which a batch ends with a push and then a pop -- the
  behaviour the one-step replace-top must keep -- including a
  replace-top followed at once by a pause, the cycle limit, the
  ``post_op`` gate, a fault or a core's last record;
* whole machines under ``mem_advance`` against the same machines under
  the Python loop (``_advance_main``) on the compiled memory system,
  paused at many points and stopped by the cycle limit.
"""

from __future__ import annotations

import copy
import heapq
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.core import ffi, lib
from repro.params import MachineConfig, Scheme
from repro.sim.cores import CoreTable
from repro.sim.machine import _FAULT_SEQ_BASE, _PAUSE_SEQ_BASE, Machine
from repro.trace import COMPUTE, END
from repro.workloads import get_workload
from tests.conftest import make_machine, tiny_config

EXEC, FAULT, PAUSE = lib.EV_EXEC, lib.EV_FAULT, lib.EV_PAUSE

#: Few distinct times, so that most entries tie on ``when``; -0.0 must
#: tie with 0.0, as it does in Python.
TIMES = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, 3.0, -4.0, math.inf])


#: Times around the calendar's window of CAL_CYCLES cycles: its edges
#: from a base of 0 and of 5000 (which a pop of a heap-tier entry at
#: 5000 moves it to), far ahead, non-integral, tied, negative, -0.0 and
#: infinite.  Behind a moved base, 1.0 and 2.5 go to the heap tier.
WINDOW = float(lib.CAL_CYCLES)
WIDE_TIMES = st.sampled_from([
    0.0, -0.0, 1.0, 1.0, 2.5, -4.0, math.inf, WINDOW - 1.0, WINDOW - 0.5,
    WINDOW, WINDOW + 0.5, 2 * WINDOW, 5000.0, 5000.0, 5000.5,
    5000.0 + WINDOW - 0.25, 5000.0 + WINDOW, 1e9])


def _event(raw) -> tuple:
    return (raw.when, raw.seq, raw.kind, raw.pid, raw.arg)


def _when(key: int) -> float:
    """``key_when``: the time of a queue node's ``wkey``."""
    bits = key & ~(1 << 63) if key >> 63 else ~key & ((1 << 64) - 1)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _check_layout(loop) -> None:
    """The queue's invariants: every calendar entry in its cycle's
    bucket inside the window, each bucket sorted by (when, seq) with its
    tail last and its bitmap bit set, the heap tier a heap, and
    ``heap_n`` the count of both tiers."""
    base, n_cal = loop.cal_base, 0
    heads = ffi.unpack(loop.cal_head, lib.CAL_CYCLES)
    tails = ffi.unpack(loop.cal_tail, lib.CAL_CYCLES)
    bits = ffi.unpack(loop.cal_bits, lib.CAL_WORDS)
    for b, head in enumerate(heads):
        assert (bits[b >> 6] >> (b & 63)) & 1 == (head >= 0)
        k, last, prev = head, -1, None
        while k >= 0:
            node = loop.cal[k].e
            when = _when(node.wkey)
            assert base <= when < base + WINDOW
            assert int(when) % lib.CAL_CYCLES == b
            assert prev is None or prev < (node.wkey, node.skey)
            prev = (node.wkey, node.skey)
            last, k = k, loop.cal[k].next
            n_cal += 1
        assert tails[b] == last
    far = [(loop.far[i].wkey, loop.far[i].skey) for i in range(loop.far_n)]
    assert all(far[(i - 1) // 2] < far[i] for i in range(1, len(far)))
    assert n_cal + loop.far_n == loop.heap_n


# ---------------------------------------------------------------------------
# the queue API against heapq
# ---------------------------------------------------------------------------

class _RefQueue:
    """The queue's contract: a heap of (when, seq, kind, pid, arg)."""

    def __init__(self, n: int):
        self.heap: list[tuple] = []
        self.seq = 0
        self.epoch = [0] * n

    def push_core(self, pid: int, time: float, not_before: float,
                  done: bool) -> None:
        if done:
            return
        self.epoch[pid] += 1
        self.seq += 1
        heapq.heappush(self.heap, (not_before if not_before > time
                                   else time, self.seq, EXEC, pid,
                                   self.epoch[pid]))

    def pop(self):
        return heapq.heappop(self.heap) if self.heap else None

    def next_when(self) -> float:
        return self.heap[0][0] if self.heap else math.inf

    def drop(self, kind: int) -> None:
        self.heap = [e for e in self.heap if e[2] != kind]
        heapq.heapify(self.heap)


def _pop(loop):
    out = ffi.new("mem_event_t *")
    return _event(out) if lib.loop_pop(loop, out) else None


def _queue_ops(times) -> st.SearchStrategy:
    return st.lists(st.one_of(
        st.tuples(st.just("fault"), times),
        st.tuples(st.just("pause"), times),
        st.tuples(st.just("installed"), times),
        st.tuples(st.just("core"), st.integers(0, 3), times, times,
                  st.booleans()),
        st.tuples(st.just("pop")),
        st.tuples(st.just("next")),
        st.tuples(st.just("drop")),
        st.tuples(st.just("clone")),
    ), max_size=80)


class TestQueueApi:
    @given(_queue_ops(TIMES))
    @settings(max_examples=300, deadline=None)
    def test_matches_heapq(self, ops):
        self._check(ops)

    @given(_queue_ops(WIDE_TIMES))
    @settings(max_examples=300, deadline=None)
    def test_window_edges_match_heapq(self, ops):
        self._check(ops)

    @staticmethod
    def _check(ops):
        table = CoreTable(4)
        loop = table.c
        ref = _RefQueue(4)
        pauses = faults = pushes = 0
        base = loop.cal_base
        for op in ops:
            if op[0] == "fault":
                loop.seq += 1
                ref.seq = loop.seq
                faults += 1
                assert lib.loop_push(loop, op[1], loop.seq, FAULT, faults)
                heapq.heappush(ref.heap, (op[1], loop.seq, FAULT, 0, faults))
                pushes += 1
            elif op[0] in ("pause", "installed"):
                if op[0] == "pause":
                    pauses += 1
                    seq, kind, arg = _PAUSE_SEQ_BASE - pauses, PAUSE, 0
                else:
                    faults += 1
                    seq, kind, arg = _FAULT_SEQ_BASE + faults, FAULT, faults
                assert lib.loop_push(loop, op[1], seq, kind, arg)
                heapq.heappush(ref.heap, (op[1], seq, kind, 0, arg))
                pushes += 1
            elif op[0] == "core":
                _, pid, time, not_before, done = op
                row = loop.hot[pid]
                row.time, row.not_before, row.done = time, not_before, done
                assert lib.loop_push_core(loop, pid)
                ref.push_core(pid, time, not_before, done)
                pushes += not done
            elif op[0] == "pop":
                assert _pop(loop) == ref.pop()
            elif op[0] == "next":
                assert lib.loop_next_when(loop) == ref.next_when()
            elif op[0] == "drop":
                lib.loop_drop(loop, PAUSE)
                ref.drop(PAUSE)
            else:
                # The original drains exactly as the reference would;
                # the clone carries on.
                clone = ffi.gc(lib.loop_clone(loop), lib.loop_free)
                expected = copy.deepcopy(ref)
                while (entry := expected.pop()) is not None:
                    assert _pop(loop) == entry
                assert _pop(loop) is None
                loop = clone
                pushes = 0      # a clone counts from zero
            assert loop.heap_n == len(ref.heap)
            assert loop.seq == ref.seq
            assert loop.cal_pushes + loop.far_pushes == pushes
            assert loop.cal_base >= base    # the window only moves on
            base = loop.cal_base
            _check_layout(loop)
        while (entry := ref.pop()) is not None:
            assert _pop(loop) == entry
        assert _pop(loop) is None
        assert lib.loop_next_when(loop) == math.inf


# ---------------------------------------------------------------------------
# mem_advance against a Python model of the loop
# ---------------------------------------------------------------------------

class _RefLoop:
    """``mem_advance`` on COMPUTE-only traces, in Python over heapq: a
    batch ends with a push of the core and the next pop."""

    def __init__(self, traces: list[list[int]]):
        n = len(traces)
        self.traces = traces
        self.q = _RefQueue(n)
        self.now = 0.0
        self.n_done = 0
        self.ip = [0] * n
        self.time = [0.0] * n
        self.not_before = [0.0] * n
        self.instr = [0] * n
        self.since_ckpt = [0] * n
        self.done = [False] * n
        self.suspended = False
        self.batch = (0, 0.0, 0)

    def push_core(self, pid: int) -> None:
        self.q.push_core(pid, self.time[pid], self.not_before[pid],
                         self.done[pid])

    def advance(self, limit: float, gate: float, quantum: int) -> tuple:
        pid, now, budget = self.batch
        in_batch, gated = self.suspended, False
        if in_batch:
            self.suspended, gated = False, True
            if self.not_before[pid] > now:
                in_batch = gated = False
                self.push_core(pid)
        while True:
            if not in_batch:
                if self.n_done >= len(self.traces):
                    return (lib.ADV_DONE,)
                entry = self.q.pop()
                if entry is None:
                    return (lib.ADV_DEADLOCK,)
                when, seq, kind, epid, arg = entry
                if kind == PAUSE:
                    return (lib.ADV_PAUSE,)
                self.now = max(self.now, when)
                if when > limit:
                    return (lib.ADV_LIMIT,)
                if kind != EXEC:
                    return (lib.ADV_CALL, when, seq)
                pid = epid
                if self.done[pid] or arg != self.q.epoch[pid]:
                    continue
                if when < self.not_before[pid]:
                    self.push_core(pid)
                    continue
                now = when if when >= self.time[pid] else self.time[pid]
                budget, in_batch = quantum, True
            if not gated and self.since_ckpt[pid] >= gate:
                self.suspended = True
                self.batch = (pid, now, budget)
                return (lib.ADV_POST_OP, pid, now)
            gated = False
            ip = self.ip[pid]
            if ip >= len(self.traces[pid]):
                return (lib.ADV_RECORD, pid, now, END)
            arg = self.traces[pid][ip]
            self.time[pid] = now + arg
            self.instr[pid] += arg
            self.since_ckpt[pid] += arg
            self.ip[pid] = ip + 1
            budget -= 1
            when = max(self.time[pid], self.not_before[pid])
            if budget <= 0 or self.q.next_when() <= when:
                in_batch = False
                self.push_core(pid)
                continue
            if when > limit:
                self.now = when
                return (lib.ADV_LIMIT,)
            now = when


class _CLoop:
    """The same driver surface over a machine's compiled loop."""

    def __init__(self, traces: list[list[int]]):
        self.machine = make_machine([[(COMPUTE, a) for a in trace]
                                     for trace in traces],
                                    config=tiny_config(len(traces),
                                                       Scheme.NONE))
        self.loop = self.machine._table.c
        self.event = ffi.new("mem_event_t *")

    def advance(self, limit: float, gate: float, quantum: int) -> tuple:
        e = self.event
        reason = self.machine.engine.advance(self.loop, limit, gate,
                                             quantum, e)
        if reason == lib.ADV_CALL:
            return (reason, e.when, e.seq)
        if reason == lib.ADV_POST_OP:
            return (reason, e.pid, e.when)
        if reason == lib.ADV_RECORD:
            return (reason, e.pid, e.when, e.kind)
        return (reason,)


def _drive(model, push, traces, faults, pauses, stalls, limit, gate,
           quantum) -> list[tuple]:
    """Start ``model`` like ``Machine.start`` plus extra faults and
    pauses, then answer its returns as the machine would: a fault may
    queue another entry, ``post_op`` checkpoints and maybe stalls the
    core, an END retires the core."""
    for when in faults:
        push("fault", when)
    for when in pauses:
        push("pause", when)
    for pid in range(len(traces)):
        push("core", pid)
    stalls = list(stalls)
    events = []
    for _ in range(2000):
        result = model.advance(limit, gate, quantum)
        events.append(result)
        reason = result[0]
        if reason == lib.ADV_CALL:
            when, seq = result[1:]
            if seq % 3 == 0:
                push("fault", when + 1.0)
        elif reason == lib.ADV_POST_OP:
            pid, now = result[1:]
            stall = stalls.pop() if stalls else 0.0
            push("post_op", pid, now, stall)
        elif reason == lib.ADV_RECORD:
            push("end", result[1])
        elif reason != lib.ADV_PAUSE:
            break
    return events


def _ref_push(model: _RefLoop):
    def push(what, *args):
        q = model.q
        if what == "fault":
            q.seq += 1
            heapq.heappush(q.heap, (args[0], q.seq, FAULT, 0, 0))
        elif what == "pause":
            model.pauses = getattr(model, "pauses", 0) + 1
            heapq.heappush(q.heap, (args[0], _PAUSE_SEQ_BASE - model.pauses,
                                    PAUSE, 0, 0))
        elif what == "core":
            model.push_core(args[0])
        elif what == "post_op":
            pid, now, stall = args
            model.since_ckpt[pid] = 0
            if stall:
                model.not_before[pid] = now + stall
        elif what == "end":
            model.done[args[0]] = True
            model.n_done += 1
    return push


def _c_push(model: _CLoop):
    loop = model.loop
    cores = model.machine.cores

    def push(what, *args):
        if what == "fault":
            loop.seq += 1
            assert lib.loop_push(loop, args[0], loop.seq, FAULT, 0)
        elif what == "pause":
            model.pauses = getattr(model, "pauses", 0) + 1
            assert lib.loop_push(loop, args[0],
                                 _PAUSE_SEQ_BASE - model.pauses, PAUSE, 0)
        elif what == "core":
            assert lib.loop_push_core(loop, args[0])
        elif what == "post_op":
            pid, now, stall = args
            cores[pid].instr_since_ckpt = 0
            if stall:
                cores[pid].not_before = now + stall
        elif what == "end":
            cores[args[0]].done = True
            loop.n_done += 1
    return push


TRACES = st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=1,
                           max_size=12), min_size=1, max_size=5)
EVENT_TIMES = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]),
                       max_size=4)


class TestAdvanceModel:
    @given(TRACES, EVENT_TIMES, EVENT_TIMES,
           st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0]), max_size=6),
           st.sampled_from([math.inf, 4.0, 9.0, 20.0]),
           st.sampled_from([math.inf, 3, 6]),
           st.sampled_from([1, 2, 3, 256]))
    @settings(max_examples=300, deadline=None)
    def test_matches_push_then_pop(self, traces, faults, pauses, stalls,
                                   limit, gate, quantum):
        ref, comp = _RefLoop(traces), _CLoop(traces)
        args = (traces, faults, pauses, stalls, limit, gate, quantum)
        expected = _drive(ref, _ref_push(ref), *args)
        got = _drive(comp, _c_push(comp), *args)
        assert got == expected
        loop = comp.loop
        assert (loop.seq, loop.now, loop.n_done) == \
            (ref.q.seq, ref.now, ref.n_done)
        for pid, core in enumerate(comp.machine.cores):
            assert (core.ip, core.time, core.epoch, core.instr_count,
                    core.done) == (ref.ip[pid], ref.time[pid],
                                   ref.q.epoch[pid], ref.instr[pid],
                                   ref.done[pid])
        # Nothing lost or duplicated: the queues hold the same entries.
        while (entry := ref.q.pop()) is not None:
            assert _pop(loop) == entry
        assert _pop(loop) is None
        # Each return is counted once, under its reason.
        counts = comp.machine.counters()
        names = {lib.ADV_DONE: "done", lib.ADV_PAUSE: "pause",
                 lib.ADV_CALL: "call", lib.ADV_POST_OP: "post_op",
                 lib.ADV_RECORD: "record", lib.ADV_LIMIT: "limit",
                 lib.ADV_DEADLOCK: "deadlock"}
        for code, name in names.items():
            assert counts[f"returns.{name}"] == \
                sum(event[0] == code for event in got)

    @pytest.mark.parametrize("reason", ["pause", "limit", "post_op",
                                        "call", "done"])
    def test_replace_top_then_return(self, reason):
        """Two cores in lockstep end every batch by a replace-top; the
        entry it takes is the pause, the fault past the limit, the core
        at the gate, the fault, or the core whose next record is END."""
        traces = [[1] * 6, [1] * 6]
        faults = [3.0] if reason in ("call", "limit") else []
        pauses = [3.0] if reason == "pause" else []
        limit = 2.5 if reason == "limit" else math.inf
        gate = 3 if reason == "post_op" else math.inf
        ref, comp = _RefLoop(traces), _CLoop(traces)
        args = (traces, faults, pauses, [], limit, gate, 256)
        expected = _drive(ref, _ref_push(ref), *args)
        assert _drive(comp, _c_push(comp), *args) == expected
        code = {"pause": lib.ADV_PAUSE, "limit": lib.ADV_LIMIT,
                "post_op": lib.ADV_POST_OP, "call": lib.ADV_CALL,
                "done": lib.ADV_DONE}[reason]
        assert code in [event[0] for event in expected]
        # In lockstep every residency runs one record: each batch ended
        # with the other core's entry (or the event) due first.
        counts = comp.machine.counters()
        assert counts["residencies"] == sum(
            count for name, count in counts.items()
            if name.startswith("records."))


# ---------------------------------------------------------------------------
# whole machines: mem_advance against the Python loop
# ---------------------------------------------------------------------------

def _pair(app: str, n_cores: int, scheme: Scheme):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme, scale=150)
    spec = get_workload(app, n_cores, config, intervals=1.5, seed=1)
    compiled = Machine(config, spec)
    python = Machine(config, spec)
    # The Python loop over the same compiled memory system: a queue
    # discipline of its own (every batch ends with push_core, pop).
    python._advance_compiled = python._advance_main
    return compiled, python, Machine(config, spec).run()


def _state(machine: Machine) -> tuple:
    return (machine.now, machine._table.c.seq, machine._table.c.heap_n,
            [(c.ip, c.time, c.epoch, c.instr_count, c.not_before)
             for c in machine.cores])


class TestMachineLoops:
    @pytest.mark.parametrize("app,scheme", [
        ("ocean", Scheme.GLOBAL),
        ("water_sp", Scheme.REBOUND),
        ("barnes", Scheme.REBOUND_BARR),
        ("apache", Scheme.GLOBAL_DWB),
    ])
    def test_pauses_and_results_match(self, app, scheme):
        compiled, python, reference = _pair(app, 16, scheme)
        for machine in (compiled, python):
            machine.start()
        for frac in (0.05, 0.2, 0.2, 0.21, 0.5, 0.77, 0.9):
            at = frac * reference.runtime
            assert compiled.advance(pause_at=at) == \
                python.advance(pause_at=at)
            assert _state(compiled) == _state(python)
        assert not compiled.advance() and not python.advance()
        assert compiled.finalize() == python.finalize() == reference

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.93])
    def test_cycle_limit_stops_both_at_the_same_state(self, frac):
        compiled, python, reference = _pair("ocean", 16, Scheme.REBOUND)
        runtime = reference.runtime
        for machine in (compiled, python):
            with pytest.raises(RuntimeError, match="exceeded"):
                machine.run(max_cycles=frac * runtime)
        assert _state(compiled) == _state(python)
