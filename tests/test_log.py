"""Tests for the ReVive-style undo log (Section 3.3.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.log import ReviveLog
from repro.mem.memory import MainMemory
from repro.params import LOG_ENTRY_BYTES


class TestAppendAndMarkers:
    def test_entries_land_in_address_banks(self):
        log = ReviveLog(n_banks=2)
        log.append(1.0, 0, 10, 111, interval=1)  # bank 0
        log.append(2.0, 0, 11, 222, interval=1)  # bank 1
        assert len(log.banks[0]) == 1
        assert len(log.banks[1]) == 1

    def test_sequence_numbers_increase(self):
        log = ReviveLog()
        a = log.append(1.0, 0, 2, 0, interval=1)
        b = log.append(2.0, 1, 4, 0, interval=1)
        assert b.seq > a.seq

    def test_markers_recorded(self):
        log = ReviveLog()
        log.mark_begin(5.0, 2, 1)
        marker = log.mark_end(9.0, 2, 1)
        assert log.end_marker(2, 1) is marker
        assert log.end_marker(2, 99) is None

    def test_total_bytes(self):
        log = ReviveLog()
        for i in range(7):
            log.append(float(i), 0, i, 0, interval=1)
        assert log.total_bytes == 7 * LOG_ENTRY_BYTES


class TestRollbackSelection:
    def test_entries_after_selects_newer_intervals(self):
        log = ReviveLog()
        log.append(1.0, 0, 10, 100, interval=1)
        log.append(2.0, 0, 12, 200, interval=2)
        log.append(3.0, 1, 14, 300, interval=2)
        undo = log.entries_after({0: 1})
        assert [e.addr for e in undo] == [12]

    def test_entries_newest_first(self):
        log = ReviveLog()
        log.append(1.0, 0, 10, 1, interval=2)
        log.append(2.0, 0, 11, 2, interval=2)
        log.append(3.0, 0, 10, 3, interval=3)
        undo = log.entries_after({0: 1})
        assert [e.old_value for e in undo] == [3, 2, 1]

    def test_target_minus_one_undoes_everything(self):
        log = ReviveLog()
        log.append(1.0, 3, 10, 0, interval=1)
        log.append(2.0, 3, 11, 0, interval=2)
        assert len(log.entries_after({3: 0})) == 2

    def test_untargeted_pids_untouched(self):
        log = ReviveLog()
        log.append(1.0, 0, 10, 0, interval=5)
        log.append(2.0, 1, 11, 0, interval=5)
        undo = log.entries_after({0: 0})
        assert {e.pid for e in undo} == {0}

    def test_discard_after_removes_undone(self):
        log = ReviveLog()
        log.append(1.0, 0, 10, 0, interval=1)
        log.append(2.0, 0, 11, 0, interval=2)
        dropped = log.discard_after({0: 1})
        assert dropped == 1
        assert log.live_entries() == 1

    def test_trim_before_reclaims_old(self):
        log = ReviveLog(n_banks=1)
        for t in range(10):
            log.append(float(t), 0, t, 0, interval=1)
        trimmed = log.trim_before(5.0)
        assert trimmed == 5
        assert all(e.time >= 5.0 for e in log.banks[0])

    @given(st.lists(
        st.tuples(st.integers(0, 3),        # pid
                  st.integers(0, 20),       # addr
                  st.integers(1, 5)),       # interval
        min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_select_discard_partition(self, records):
        """entries_after + the survivors partition the log exactly."""
        log = ReviveLog()
        for i, (pid, addr, interval) in enumerate(records):
            log.append(float(i), pid, addr, i, interval)
        targets = {0: 2, 1: 3}
        selected = {e.seq for e in log.entries_after(targets)}
        log.discard_after(targets)
        remaining = {e.seq for bank in log.banks for e in bank}
        assert selected.isdisjoint(remaining)
        assert len(selected) + len(remaining) == len(records)


class TestStats:
    def test_max_interval_bytes_uses_bins(self):
        log = ReviveLog(bin_cycles=100)
        for t in (1, 2, 3):
            log.append(float(t), 0, t, 0, interval=1)
        log.append(150.0, 0, 9, 0, interval=1)
        assert log.max_interval_bytes() == 3 * LOG_ENTRY_BYTES

    def test_entries_of(self):
        log = ReviveLog()
        log.append(1.0, 0, 1, 0, interval=1)
        log.append(1.0, 1, 2, 0, interval=1)
        log.append(1.0, 1, 3, 0, interval=1)
        assert log.entries_of([1]) == 2
        assert log.entries_of([0, 1]) == 3


def _compiled_engine(n_banks: int, bin_cycles: int):
    """A standalone compiled core; its ``memory`` is the memory
    controller (``CoreMemory`` over its ``CoreLog``), valid while the
    engine lives."""
    from repro.coherence.core import CompiledEngine
    from repro.coherence.protocol import DependenceTracker
    from repro.interconnect import Interconnect
    from tests.conftest import tiny_config

    config = tiny_config(4)
    engine = CompiledEngine(config, ReviveLog(n_banks, bin_cycles),
                            Interconnect(config), DependenceTracker())
    return engine


def test_unbound_engine_logs_evictions_in_interval_zero():
    """A core bound to no machine has no core rows to read an interval
    from: the tracker's hooks (Global's) tag its writebacks 0."""
    engine = _compiled_engine(n_banks=2, bin_cycles=100)
    line = engine.config.l2.line_bytes
    now = 0.0
    for i in range(4 * engine.config.l2.size_bytes // line):
        now = engine.store(0, 0x1000 + line * i, i + 1, now + 1.0)
    entries = [entry for bank in engine.memory.log.banks for entry in bank]
    assert entries                       # dirty lines were evicted
    assert {entry.interval for entry in entries} == {0}


def _entries(entries):
    return [(e.seq, e.time, e.pid, e.addr, e.old_value, e.interval)
            for e in entries]


class TestCompiledLog:
    @given(st.lists(
        st.tuples(st.integers(0, 3),        # pid
                  st.integers(0, 20),       # addr
                  st.integers(1, 5),        # interval
                  st.integers(0, 400)),     # time
        min_size=1, max_size=60),
        st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_python_log(self, records, cut):
        """The compiled core's log and first-writeback filter keep
        ReviveLog's and MainMemory's API and results."""
        engine = _compiled_engine(n_banks=3, bin_cycles=100)
        memories = (MainMemory(ReviveLog(n_banks=3, bin_cycles=100)),
                    engine.memory)
        for memory in memories:
            memory.log.mark_begin(0.0, 0, 1)
            for pid, addr, interval, time in records:
                memory.log_writeback(float(time), pid, addr, addr + 1,
                                     interval)
            memory.end_interval(1, 2)
        python, compiled = (memory.log for memory in memories)
        assert [(m.writes, m.logged_writebacks, m.suppressed_logs)
                for m in memories] == \
            [(memories[0].writes, memories[0].logged_writebacks,
              memories[0].suppressed_logs)] * 2
        assert compiled.total_entries == python.total_entries
        assert compiled.max_interval_bytes() == python.max_interval_bytes()
        targets = {0: 2, 2: 3}
        assert _entries(compiled.entries_after(targets)) == \
            _entries(python.entries_after(targets))
        assert compiled.discard_after(targets) == \
            python.discard_after(targets)
        assert compiled.trim_before(float(cut)) == \
            python.trim_before(float(cut))
        assert compiled.live_entries() == python.live_entries()
        assert [_entries(bank) for bank in compiled.banks] == \
            [_entries(bank) for bank in python.banks]
        assert compiled.mark_end(9.0, 0, 1).seq == \
            python.mark_end(9.0, 0, 1).seq
