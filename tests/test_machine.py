"""Tests for the machine's event loop and trace execution."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.core import ffi, lib
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.trace import COMPUTE, END, LOAD, OUTPUT, STORE
from repro.workloads import get_workload
from tests.conftest import make_machine, make_spec, tiny_config


class TestBasicExecution:
    def test_compute_advances_time_and_instructions(self):
        machine = make_machine([[(COMPUTE, 100), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 100
        assert machine.cores[0].instr_count == 100

    def test_memory_ops_cost_latency(self):
        machine = make_machine([[(LOAD, 5), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime >= machine.config.memory_cycles

    def test_empty_trace_completes(self):
        machine = make_machine([[], [(COMPUTE, 5), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 5

    def test_trace_without_end_terminates(self):
        machine = make_machine([[(COMPUTE, 7)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 7

    def test_store_then_load_same_core(self):
        machine = make_machine(
            [[(STORE, 9), (LOAD, 9), (END,)]],
            config=tiny_config(2, Scheme.NONE, check_coherence=True))
        machine.run()  # golden model validates the load

    def test_max_cycles_guard(self):
        machine = make_machine([[(COMPUTE, 10_000), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.run(max_cycles=100)

    def test_unknown_op_rejected(self):
        # Rejected at trace-compile time (machine construction), before
        # any cycle is simulated.
        with pytest.raises(ValueError, match="unknown trace op"):
            make_machine([[(99, 0)]], config=tiny_config(2, Scheme.NONE))

    def test_max_cycles_guard_covers_post_run_drain(self):
        # The application finishes almost immediately, but a drain
        # entry or a fault is still queued past the cycle limit: the
        # post-run drain loop must enforce the limit too instead of
        # passing it silently.
        config = tiny_config(2, Scheme.GLOBAL_DWB)
        machine = make_machine([[(COMPUTE, 10), (END,)]], config=config)
        machine.start(max_cycles=5_000)
        machine.push_drain(50_000.0, 0, 1)
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.advance()
        assert machine.now == 50_000.0
        # A fault detected after the limit, with no drain queued.
        machine = make_machine([[(COMPUTE, 10), (END,)]], config=config,
                               faults=[(6_000.0, 0)])
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.run(max_cycles=5_000)
        assert machine.now == 6_000.0 + config.detection_latency

    def test_too_many_threads_rejected(self):
        spec = make_spec([[(END,)]] * 3)
        from repro.sim.machine import Machine
        with pytest.raises(ValueError, match="cores"):
            Machine(tiny_config(2, Scheme.NONE), spec)


class TestInterleaving:
    def test_cores_advance_by_local_time(self):
        machine = make_machine(
            [[(COMPUTE, 1000), (END,)], [(COMPUTE, 10), (END,)]],
            config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.cores[0].end_time == 1000
        assert stats.cores[1].end_time == 10

    def test_producer_consumer_values_flow(self):
        machine = make_machine(
            [
                [(STORE, 7), (COMPUTE, 50), (END,)],
                [(COMPUTE, 500), (LOAD, 7), (END,)],
            ],
            config=tiny_config(2, Scheme.NONE, check_coherence=True))
        machine.run()
        # Consumer's cache holds the producer's value.
        assert machine.engine.peek_line(1, 7).value == \
            machine.engine.golden[7]

    @given(st.lists(st.tuples(st.integers(0, 2),  # which op
                              st.integers(0, 15)),  # address
                    min_size=1, max_size=60),
           st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_golden_coherence_random_traces(self, ops, n_threads):
        """Every load observes the globally last store (serialization)."""
        traces = [[] for _ in range(n_threads)]
        for i, (kind, addr) in enumerate(ops):
            thread = i % n_threads
            if kind == 0:
                traces[thread].append((COMPUTE, 1 + addr))
            elif kind == 1:
                traces[thread].append((LOAD, addr))
            else:
                traces[thread].append((STORE, addr))
        for trace in traces:
            trace.append((END,))
        machine = make_machine(
            traces, config=tiny_config(n_threads, Scheme.NONE,
                                       check_coherence=True))
        machine.run()  # raises on any coherence violation


class TestOutputOp:
    def test_output_forces_checkpoint_in_rebound(self):
        machine = make_machine(
            [[(STORE, 1), (OUTPUT, 64), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert any(e.kind == "io" for e in stats.checkpoints)

    def test_output_forces_global_checkpoint(self):
        machine = make_machine(
            [[(STORE, 1), (OUTPUT, 64), (END,)], [(COMPUTE, 5000), (END,)]],
            config=tiny_config(2, Scheme.GLOBAL))
        stats = machine.run()
        io_events = [e for e in stats.checkpoints if e.kind == "io"]
        assert len(io_events) == 1
        assert io_events[0].size == 2     # global: everyone participates

    def test_output_noop_without_checkpointing(self):
        machine = make_machine(
            [[(OUTPUT, 64), (END,)]],
            config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.checkpoints == []
        assert stats.runtime >= machine.config.io_cycles


class TestStatsAssembly:
    def test_messages_and_log_reported(self):
        machine = make_machine(
            [
                [(STORE, 1), (COMPUTE, 3000), (STORE, 2), (END,)],
                [(COMPUTE, 100), (LOAD, 1), (COMPUTE, 3000), (END,)],
            ],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert stats.base_messages > 0
        assert stats.total_instructions > 6000
        assert len(stats.cores) == 2

    def test_checkpoint_events_have_duration(self):
        machine = make_machine(
            [[(STORE, 1), (COMPUTE, 5000), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert stats.checkpoints, "interval expiry must checkpoint"
        for event in stats.checkpoints:
            assert event.duration >= 0
            assert 1 <= event.size <= 2


@pytest.fixture
def no_cycle_collector():
    """Run the test with Python's cycle collector off: whatever it frees
    is freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _freed(*objects) -> list:
    return [weakref.ref(obj) for obj in objects]


@pytest.mark.usefixtures("no_cycle_collector")
class TestMachineLifetime:
    """A finished machine, its compiled engine and its loop table (and
    the C memory behind the two) are freed when the last reference goes,
    not when a full collection happens to run."""

    @pytest.mark.parametrize("scheme", [Scheme.NONE, Scheme.GLOBAL,
                                        Scheme.REBOUND,
                                        Scheme.REBOUND_NODWB_BARR])
    def test_freed_on_del(self, scheme):
        config = MachineConfig.scaled(n_cores=16, scheme=scheme, scale=150)
        spec = get_workload("water_sp", 16, config, intervals=1.5, seed=1)
        machine = Machine(config, spec)
        machine.run()
        refs = _freed(machine, machine.engine, machine._table,
                      machine.scheme, machine.memory)
        del machine
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_forks_are_freed_on_del(self):
        config = MachineConfig.scaled(n_cores=8, scheme=Scheme.REBOUND,
                                      scale=150)
        spec = get_workload("ocean", 8, config, intervals=2.0, seed=1)
        leader = Machine(config, spec)
        leader.start()
        leader.advance(pause_at=config.checkpoint_interval)
        fork = leader.fork()
        fork.install_faults([(1.1 * config.checkpoint_interval, 2)])
        fork.advance()
        assert fork.finalize().rollbacks
        leader.advance()
        leader.finalize()
        refs = _freed(leader, leader.engine, leader._table,
                      fork, fork.engine, fork._table)
        del leader, fork
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_view_past_its_engine_says_so(self):
        machine = make_machine([[(COMPUTE, 5), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        memory = machine.memory
        del machine
        with pytest.raises(ReferenceError, match="keep the machine"):
            memory.peek(0)


class TestForkIsolation:
    """A fork shares what the simulator never mutates in place
    (completed snapshots, the stall windows' tuples) with its parent;
    everything the fork goes on to change stays its own."""

    def _paused_mid_drain(self):
        config = MachineConfig.scaled(n_cores=16, scheme=Scheme.GLOBAL_DWB,
                                      scale=150)
        spec = get_workload("ocean", 16, config, intervals=2.0, seed=1)
        leader = Machine(config, spec)
        leader.start()
        leader.advance(until_scheme=True)
        # The held gate takes the first checkpoint; its lines are still
        # draining one cycle later.
        leader.advance(pause_at=leader.now + 1)
        return leader

    def test_mutating_a_fork_leaves_the_parent_alone(self):
        leader = self._paused_mid_drain()
        core = leader.cores[0]
        assert core.snapshots[-1].complete_time is None
        assert core.stall_segments
        before = _core_state(leader)
        fork = leader.fork()
        forked = fork.cores[0]
        forked.stats.busy += 1.0
        forked.stats.n_checkpoints += 1
        forked.snapshots[-1].complete_time = 1.0
        forked.snapshots.append(forked.snapshots[0])
        forked.stall_segments.append((0.0, 1.0))
        forked.truncate_stalls(0.0)
        fork.advance()
        fork.finalize()
        assert _core_state(leader) == before
        assert core.snapshots[-1].complete_time is None

    def test_parent_and_fork_finish_alike(self):
        leader = self._paused_mid_drain()
        fork = leader.fork()
        fork.advance()
        leader.advance()
        assert fork.finalize() == leader.finalize()

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL_DWB, Scheme.REBOUND])
    def test_fork_fires_pending_faults_and_drains(self, scheme):
        """The queue is plain data: a fork paused with faults and drains
        pending fires them itself, ends as a run never forked does, and
        leaves the parent's queue, rows and results as they were."""
        config = MachineConfig.scaled(n_cores=16, scheme=scheme, scale=150)
        spec = get_workload("ocean", 16, config, intervals=2.0, seed=1)
        first = Machine(config, spec).run().checkpoints[0]
        pause = first.time + first.duration / 2   # its drains in flight
        faults = [(pause, 3), (pause + config.checkpoint_interval / 2, 9)]
        reference = Machine(config, spec, faults=faults).run()
        assert len(reference.rollbacks) == 2
        parent = Machine(config, spec, faults=faults)
        parent.start()
        assert parent.advance(pause_at=pause)
        kinds = [entry[2] for entry in _pending(parent)]
        assert kinds.count(lib.EV_FAULT) == 2
        assert kinds.count(lib.EV_DRAIN) > 0
        before = _machine_state(parent)
        fork = parent.fork()
        assert not fork.advance()
        assert fork.finalize() == reference
        assert len(fork.faults.delivered) == 2
        assert _machine_state(parent) == before
        assert not parent.advance()
        assert parent.finalize() == reference


def _pending(machine):
    """The entries in ``machine``'s queue, in pop order (read off a
    clone, so the queue itself is left alone)."""
    clone = ffi.gc(lib.loop_clone(machine.loop), lib.loop_free)
    event = ffi.new("mem_event_t *")
    entries = []
    while lib.loop_pop(clone, event):
        entries.append((event.when, event.seq, event.kind, event.pid,
                        event.arg))
    return entries


def _machine_state(machine):
    """A paused machine's queue, clock, rows, faults and results."""
    return (_pending(machine), machine.now, _core_state(machine),
            [(core.ip, core.time, core.not_before, core.delayed_ckpt_id,
              core.pending_delayed) for core in machine.cores],
            len(machine.faults.delivered), machine.faults.outstanding,
            list(machine.stats.checkpoints), list(machine.stats.rollbacks))


def _core_state(machine):
    """Every core's stats, snapshots and stall windows, by value."""
    return [(dataclasses.asdict(core.stats),
             [dataclasses.asdict(snap) for snap in core.snapshots],
             list(core.stall_segments)) for core in machine.cores]
