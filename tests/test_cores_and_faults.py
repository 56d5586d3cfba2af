"""Tests for per-core state (snapshots, rewind) and fault injection."""

import pytest

from repro.sim.cores import Core, CoreTable
from repro.sim.faults import FaultInjector
from repro.workloads import BarrierSpec, LockSpec


class TestCoreSnapshots:
    def test_snapshot_captures_context(self):
        # Held locks and crossings live in the loop's lock and barrier
        # tables: the core holds lock 7 and crossed barrier 0 twice.
        table = CoreTable(1, locks=[LockSpec(7, 64)],
                          barriers=[BarrierSpec(0, [0], 128, 192)])
        core = Core(0, [("x",)] * 10, table)
        core.ip = 4
        core.instr_count = 123
        table.locks[7].holder = 0
        table.barriers[0].crossed[0] = 2
        snap = core.take_snapshot(500.0)
        assert snap.ckpt_id == 1
        assert snap.trace_ip == 4
        assert snap.instr_count == 123
        assert snap.held_locks == frozenset({7})
        assert snap.barrier_crossings == {0: 2}
        assert snap.complete_time is None

    def test_snapshot_ids_monotonic(self):
        core = Core(0, [])
        a = core.take_snapshot(1.0)
        b = core.take_snapshot(2.0)
        assert b.ckpt_id == a.ckpt_id + 1

    def test_ckpt_gap_accounting(self):
        core = Core(0, [])
        core.take_snapshot(100.0)
        core.take_snapshot(300.0)
        assert core.stats.ckpt_gap_count == 2
        assert core.stats.ckpt_gap_sum == 300.0
        assert core.stats.mean_ckpt_gap == 150.0

    def test_latest_safe_snapshot_requires_age(self):
        core = Core(0, [])
        snap = core.take_snapshot(100.0)
        snap.complete_time = 150.0
        # Detection at 200 with L=100: the new snapshot is too young.
        safe = core.latest_safe_snapshot(200.0, 100.0)
        assert safe.ckpt_id == 0        # program start
        safe = core.latest_safe_snapshot(300.0, 100.0)
        assert safe.ckpt_id == snap.ckpt_id

    def test_incomplete_snapshot_never_safe(self):
        core = Core(0, [])
        core.take_snapshot(100.0)       # complete_time stays None
        safe = core.latest_safe_snapshot(1e12, 1.0)
        assert safe.ckpt_id == 0

    def test_rollback_rewinds_and_reports_waste(self):
        core = Core(0, [("x",)] * 10)
        snap = core.take_snapshot(100.0)
        snap.complete_time = 120.0
        core.ip = 9
        core.time = 5_000.0
        core.instr_count = 999
        core.blocked = "lock"
        wasted = core.rollback_to(snap, resume_time=6_000.0)
        assert wasted == 4_900.0
        assert core.ip == snap.trace_ip
        assert core.instr_count == snap.instr_count
        assert core.blocked is None
        assert core.time == 6_000.0
        assert core.next_ckpt_id == snap.ckpt_id + 1

    def test_rollback_prunes_newer_snapshots(self):
        core = Core(0, [])
        first = core.take_snapshot(100.0)
        first.complete_time = 110.0
        core.take_snapshot(200.0)
        core.take_snapshot(300.0)
        core.rollback_to(first, 400.0)
        assert [s.ckpt_id for s in core.snapshots] == [0, 1]

    def test_core_outside_its_table_is_refused(self):
        # A core is a view of its row in the machine loop's table.
        table = CoreTable(2)
        assert Core(1, [], table).pid == 1
        with pytest.raises(IndexError, match="not in a table of 2"):
            Core(2, [], table)

    def test_store_values_unique_across_rollback(self):
        """Re-executed stores must not reuse old value tags (the golden
        checker depends on it)."""
        core = Core(3, [])
        before = {core.next_store_value() for _ in range(5)}
        snap = core.take_snapshot(10.0)
        snap.complete_time = 10.0
        core.rollback_to(snap, 20.0)
        after = {core.next_store_value() for _ in range(5)}
        assert before.isdisjoint(after)


class TestFaultInjector:
    def test_detection_delayed_by_latency(self):
        injector = FaultInjector([(100.0, 2)], detection_latency=50.0)
        (event,) = injector.events
        assert event.pid == 2
        assert event.time == 100.0
        assert event.detect_time == 150.0
        assert not event.detected

    def test_faults_delivered_once(self):
        injector = FaultInjector([(10.0, 0)], detection_latency=5.0)
        (event,) = injector.events
        injector.mark_delivered(event)
        assert event.detected
        assert injector.outstanding == 0
        with pytest.raises(ValueError, match="out of detection order"):
            injector.mark_delivered(event)
        with pytest.raises(ValueError, match="out of detection order"):
            injector.mark_undelivered(event)
        assert injector.delivered == [event]
        assert injector.undelivered == []

    def test_faults_sorted_by_time(self):
        injector = FaultInjector([(300.0, 1), (100.0, 0)],
                                 detection_latency=0.0)
        assert [e.pid for e in injector.events] == [0, 1]
        assert [e.detect_time for e in injector.events] == [100.0, 300.0]

    def test_multiple_due_at_once(self):
        # Equal detection times resolve in (time, pid) order.
        injector = FaultInjector([(1.0, 1), (1.0, 0)],
                                 detection_latency=10.0)
        first, second = injector.events
        assert (first.pid, second.pid) == (0, 1)
        assert first.detect_time == second.detect_time == 11.0
        injector.mark_delivered(first)
        injector.mark_delivered(second)
        assert injector.delivered == [first, second]
        assert injector.outstanding == 0

    def test_push_api_resolves_in_order(self):
        injector = FaultInjector([(1.0, 0), (2.0, 1)],
                                 detection_latency=10.0)
        first, second = injector.events
        injector.mark_delivered(first)
        assert injector.outstanding == 1
        injector.mark_undelivered(second)
        assert injector.outstanding == 0
        assert injector.delivered == [first]
        assert injector.undelivered == [second]
        assert second.undelivered and not second.detected

    def test_push_api_rejects_out_of_order(self):
        injector = FaultInjector([(1.0, 0), (2.0, 1)],
                                 detection_latency=10.0)
        with pytest.raises(ValueError, match="out of detection order"):
            injector.mark_delivered(injector.events[1])
        with pytest.raises(ValueError, match="out of detection order"):
            injector.mark_undelivered(injector.events[1])
        assert injector.outstanding == 2

    def test_large_fault_list_drains_linearly(self):
        # Campaign-scale lists: resolving advances a cursor, never pops
        # the head of a list (the old O(n^2) drain).
        n = 5_000
        injector = FaultInjector([(float(i), i % 7) for i in range(n)],
                                 detection_latency=1.0)
        for i, event in enumerate(injector.events):
            if i % 2:
                injector.mark_undelivered(event)
            else:
                injector.mark_delivered(event)
        assert len(injector.delivered) + len(injector.undelivered) == n
        assert injector.outstanding == 0
