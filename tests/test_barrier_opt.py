"""Tests for the BarCK barrier checkpoint optimization (Section 4.2.1)."""

import pytest

from repro.params import Scheme
from repro.trace import BARRIER, COMPUTE, END, STORE
from tests.conftest import barrier_spec, make_machine, tiny_config


def barrier_workload(n_threads, work, stores=2, rounds=1):
    traces = []
    for tid in range(n_threads):
        trace = []
        for _ in range(rounds):
            for s in range(stores):
                trace.append((STORE, 100 * tid + s))
            trace.append((COMPUTE, work * (tid + 1)))
            trace.append((BARRIER, 0))
        trace.append((COMPUTE, 10))
        trace.append((END,))
        traces.append(trace)
    return traces


class TestBarckTrigger:
    def test_interested_arrival_triggers_barrier_checkpoint(self):
        config = tiny_config(3, Scheme.REBOUND_BARR,
                             checkpoint_interval=8_000,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(3, work=2_000)
        machine = make_machine(traces, barriers=[barrier_spec(3)],
                               config=config)
        stats = machine.run()
        kinds = [e.kind for e in stats.checkpoints]
        assert "barrier" in kinds
        barrier_events = [e for e in stats.checkpoints
                          if e.kind == "barrier"]
        assert all(e.size == 3 for e in barrier_events)

    def test_uninterested_barrier_stays_plain(self):
        """If nobody has run a meaningful fraction of its interval, the
        barrier is not turned into a checkpoint."""
        config = tiny_config(3, Scheme.REBOUND_BARR,
                             checkpoint_interval=10**9,
                             barrier_interest_fraction=0.9)
        traces = barrier_workload(3, work=100)
        machine = make_machine(traces, barriers=[barrier_spec(3)],
                               config=config)
        stats = machine.run()
        assert not any(e.kind == "barrier" for e in stats.checkpoints)

    def test_barrier_checkpoint_resets_intervals(self):
        config = tiny_config(3, Scheme.REBOUND_BARR,
                             checkpoint_interval=4_000,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(3, work=1_200)
        machine = make_machine(traces, barriers=[barrier_spec(3)],
                               config=config)
        machine.run()
        for core in machine.cores:
            assert core.instr_since_ckpt < 1_500

    def test_works_without_delayed_writebacks_scheme(self):
        config = tiny_config(3, Scheme.REBOUND_NODWB_BARR,
                             checkpoint_interval=8_000,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(3, work=2_000)
        machine = make_machine(traces, barriers=[barrier_spec(3)],
                               config=config)
        stats = machine.run()
        assert any(e.kind == "barrier" for e in stats.checkpoints)


class TestBarckSemantics:
    def test_post_barrier_ichk_is_small(self):
        """Processors leave the barrier with ICHK = {self, flag writer}
        instead of everyone (the whole point of the optimization)."""
        config = tiny_config(4, Scheme.REBOUND_BARR,
                             checkpoint_interval=2_500,
                             barrier_interest_fraction=0.1)
        n = 4
        traces = []
        for tid in range(n):
            traces.append([
                (STORE, 100 * tid),
                (COMPUTE, 1_500 + 100 * tid),
                (BARRIER, 0),
                (STORE, 200 + tid),          # post-barrier work
                (COMPUTE, 3_000),            # expire the next interval
                (COMPUTE, 100),
                (END,),
            ])
        machine = make_machine(traces, barriers=[barrier_spec(n)],
                               config=config)
        stats = machine.run()
        post = [e for e in stats.checkpoints
                if e.kind == "interval" and e.time > 1_500]
        assert post, "post-barrier interval checkpoints expected"
        # Without the optimization these would have size n (Fig 4.2b).
        assert all(e.size <= 2 for e in post)

    def test_memory_contains_checkpointed_data(self):
        config = tiny_config(2, Scheme.REBOUND_BARR,
                             checkpoint_interval=3_000,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(2, work=800)
        machine = make_machine(traces, barriers=[barrier_spec(2)],
                               config=config)
        machine.run()
        # The barrier checkpoint drained every dirty line to memory.
        assert machine.memory.peek(0) != 0      # thread 0's line 0
        assert machine.memory.peek(100) != 0    # thread 1's line 100

    def test_snapshots_complete_after_barrier(self):
        config = tiny_config(2, Scheme.REBOUND_BARR,
                             checkpoint_interval=3_000,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(2, work=800)
        machine = make_machine(traces, barriers=[barrier_spec(2)],
                               config=config)
        machine.run()
        for core in machine.cores:
            for snap in core.snapshots:
                assert snap.complete_time is not None

    def test_fault_after_barrier_checkpoint_recovers(self):
        config = tiny_config(2, Scheme.REBOUND_BARR,
                             checkpoint_interval=3_000,
                             detection_latency=100,
                             barrier_interest_fraction=0.1)
        traces = barrier_workload(2, work=800, rounds=2)
        machine = make_machine(traces, barriers=[barrier_spec(2)],
                               config=config, faults=[(2_500.0, 0)])
        stats = machine.run()
        assert stats.rollbacks
        assert all(core.done for core in machine.cores)


class TestBarckDrainHandoff:
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_drain_of_no_lines_still_closes_its_snapshot(self, seed):
        """Core 1's interval checkpoint writes back no lines, and the
        core joins a BarCK before that drain's completion fires: the
        BarCK must complete the drain first, or the earlier snapshot
        never closes (it can then never be a rollback target)."""
        traces = [[(COMPUTE, 150), (COMPUTE, 161), (COMPUTE, 226),
                   (COMPUTE, 226), (BARRIER, 0), (END,)],
                  [(COMPUTE, 186), (COMPUTE, 186), (COMPUTE, 528),
                   (BARRIER, 0), (END,)]]
        config = tiny_config(2, Scheme.REBOUND_BARR, seed=seed,
                             checkpoint_interval=900)
        machine = make_machine(traces, barriers=[barrier_spec(2)],
                               config=config)
        stats = machine.run()
        assert [e.kind for e in stats.checkpoints].count("barrier") == 1
        assert [(core.pid, snap.ckpt_id) for core in machine.cores
                for snap in core.snapshots
                if snap.complete_time is None] == []
