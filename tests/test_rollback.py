"""Fault injection and rollback correctness (Sections 3.3.5, 4.2, App A).

These are the system's deepest correctness tests: after a rollback the
memory image must be exactly what the targeted checkpoints certified,
lost work must re-execute, and the recovery must be bounded (no domino
effect).
"""

import pytest

from repro.params import Scheme
from repro.trace import BARRIER, COMPUTE, END, LOAD, LOCK, STORE, UNLOCK
from tests.conftest import (
    barrier_spec,
    lock_spec,
    make_machine,
    tiny_config,
)


def run_to_completion(machine):
    stats = machine.run()
    assert all(core.done for core in machine.cores)
    return stats


class TestGlobalRollback:
    def test_fault_rolls_back_all_and_reexecutes(self):
        # Interval 2000; fault at 3000 detected at 3400: the checkpoint
        # taken around 2000+ is NOT yet safe (needs L=400 of age at
        # detection if completed before 3000), so target depends on
        # completion time; either way the run must finish correctly.
        traces = [
            [(STORE, 1), (COMPUTE, 8000), (STORE, 2), (END,)],
            [(STORE, 10), (COMPUTE, 8000), (END,)],
        ]
        machine = make_machine(traces, config=tiny_config(2, Scheme.GLOBAL),
                               faults=[(3000.0, 0)])
        stats = run_to_completion(machine)
        assert len(stats.rollbacks) == 1
        event = stats.rollbacks[0]
        assert event.size == 2                  # global: everyone
        assert event.latency > 0
        assert stats.runtime > 8000

    def test_rollback_restores_memory_image(self):
        traces = [
            [(STORE, 1), (COMPUTE, 3000), (STORE, 2), (COMPUTE, 6000),
             (END,)],
        ]
        machine = make_machine(traces, config=tiny_config(2, Scheme.GLOBAL),
                               faults=[(4000.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks
        # After re-execution both stores are in the final state.
        assert machine.engine.peek_line(0, 1) is not None or \
            machine.memory.peek(1) != 0

    def test_fault_without_safe_checkpoint_rolls_to_start(self):
        traces = [[(STORE, 1), (COMPUTE, 1000), (END,)]]
        machine = make_machine(traces, config=tiny_config(2, Scheme.GLOBAL),
                               faults=[(100.0, 0)])
        stats = run_to_completion(machine)
        event = stats.rollbacks[0]
        assert event.max_depth >= 1
        # Rolling to program start: memory reverts to zero before rerun.
        assert machine.cores[0].instr_count == 1001


class TestReboundRollback:
    def test_irec_includes_consumers(self):
        # P0 produces, P1 consumes, P2 independent.
        traces = [
            [(STORE, 5), (COMPUTE, 9000), (END,)],
            [(COMPUTE, 300), (LOAD, 5), (COMPUTE, 9000), (END,)],
            [(COMPUTE, 9500), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(4, Scheme.REBOUND),
                               faults=[(1000.0, 0)])
        stats = run_to_completion(machine)
        event = stats.rollbacks[0]
        assert event.size == 2      # P0 and its consumer P1, not P2
        assert machine.cores[2].stats.recovery == 0

    def test_independent_core_unaffected(self):
        traces = [
            [(STORE, 5), (COMPUTE, 9000), (END,)],
            [(STORE, 50), (COMPUTE, 9000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(4, Scheme.REBOUND),
                               faults=[(1000.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks[0].size == 1

    def test_transitive_consumers_roll_back(self):
        # Chain P0 -> P1 -> P2 within one interval.
        traces = [
            [(STORE, 5), (COMPUTE, 9000), (END,)],
            [(COMPUTE, 300), (LOAD, 5), (STORE, 6), (COMPUTE, 9000),
             (END,)],
            [(COMPUTE, 700), (LOAD, 6), (COMPUTE, 9000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(4, Scheme.REBOUND),
                               faults=[(1200.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks[0].size == 3

    def test_memory_restored_exactly_to_checkpoint(self):
        """Undo must land on the pre-fault checkpoint image, byte for
        byte, for every line the rolled-back core logged."""
        config = tiny_config(2, Scheme.REBOUND, checkpoint_interval=1000,
                             detection_latency=200)
        traces = [
            [(STORE, 1), (STORE, 2), (COMPUTE, 1500),   # ckpt ~ here
             (STORE, 1), (COMPUTE, 4000), (END,)],
        ]
        machine = make_machine(traces, config=config,
                               faults=[(2500.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks
        # Final state reflects full re-execution: line 1 was stored
        # twice; its final architectural value is the re-executed one.
        final = machine.engine.peek_line(0, 1)
        assert final is not None and final.value >> 40 == 0

    def test_rollback_depth_bounded_no_domino(self):
        """Appendix A: at most latest-safe + in-flight intervals unwind."""
        config = tiny_config(3, Scheme.REBOUND, checkpoint_interval=800,
                             detection_latency=150)
        traces = [
            [(STORE, 5), (COMPUTE, 400)] * 12 + [(END,)],
            [(LOAD, 5), (COMPUTE, 400)] * 12 + [(END,)],
        ]
        machine = make_machine(traces, config=config,
                               faults=[(2900.0, 0)])
        stats = run_to_completion(machine)
        for event in stats.rollbacks:
            assert event.max_depth <= 3   # target + open + one draining

    def test_wasted_cycles_recorded(self):
        traces = [[(STORE, 1), (COMPUTE, 6000), (END,)]]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(1500.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks[0].wasted_cycles > 0


class TestRollbackWithSynchronization:
    def test_lock_holder_rollback_releases_lock(self):
        lock = lock_spec()
        config = tiny_config(3, Scheme.REBOUND)
        traces = [
            [(LOCK, 0), (COMPUTE, 2500), (UNLOCK, 0), (COMPUTE, 6000),
             (END,)],
            [(COMPUTE, 100), (LOCK, 0), (COMPUTE, 10), (UNLOCK, 0),
             (COMPUTE, 6000), (END,)],
        ]
        machine = make_machine(traces, locks=[lock], config=config,
                               faults=[(600.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks
        lock_state = machine.sync.locks[0]
        assert lock_state.holder is None
        assert not lock_state.queue

    def test_barrier_rollback_rewinds_generation(self):
        barrier = barrier_spec(2)
        config = tiny_config(3, Scheme.REBOUND,
                             checkpoint_interval=100_000)
        traces = [
            [(STORE, 5), (COMPUTE, 1000), (BARRIER, 0), (COMPUTE, 4000),
             (END,)],
            [(COMPUTE, 200), (LOAD, 5), (BARRIER, 0), (COMPUTE, 4000),
             (END,)],
        ]
        # Fault on P0 detected after the barrier: both crossed it and
        # both depend on the flag writer, so both roll back past it and
        # re-cross (generation regresses, then advances again).
        machine = make_machine(traces, barriers=[barrier], config=config,
                               faults=[(1500.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks[0].size == 2
        assert machine.sync.barriers[0].gen == 1
        for core in machine.cores:
            assert core.barrier_crossings[0] == 1

    def test_rollback_of_blocked_waiter(self):
        """A core blocked at a barrier when its producer faults must be
        cleanly unwound and re-arrive."""
        barrier = barrier_spec(2)
        config = tiny_config(3, Scheme.REBOUND,
                             checkpoint_interval=100_000)
        traces = [
            [(STORE, 5), (COMPUTE, 4000), (BARRIER, 0), (END,)],
            [(LOAD, 5), (BARRIER, 0), (END,)],   # arrives early, blocks
        ]
        machine = make_machine(traces, barriers=[barrier], config=config,
                               faults=[(800.0, 0)])
        stats = run_to_completion(machine)
        assert stats.rollbacks[0].size == 2
        assert machine.sync.barriers[0].gen == 1


class TestMultipleFaults:
    def test_two_faults_recovered(self):
        traces = [
            [(STORE, 1), (COMPUTE, 3000), (STORE, 2), (COMPUTE, 8000),
             (END,)],
            [(COMPUTE, 11500), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(1000.0, 0), (5000.0, 0)])
        stats = run_to_completion(machine)
        assert len(stats.rollbacks) == 2

    def test_fault_on_each_core(self):
        traces = [
            [(STORE, 1), (COMPUTE, 9000), (END,)],
            [(STORE, 20), (COMPUTE, 9000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(1000.0, 0), (4000.0, 1)])
        stats = run_to_completion(machine)
        assert len(stats.rollbacks) == 2
        initiators = {e.initiator for e in stats.rollbacks}
        assert initiators == {0, 1}


class TestNoSchemeFaults:
    def test_fault_without_scheme_raises(self):
        machine = make_machine([[(COMPUTE, 2000), (END,)]],
                               config=tiny_config(2, Scheme.NONE),
                               faults=[(100.0, 0)])
        with pytest.raises(RuntimeError, match="no recovery support"):
            machine.run()
