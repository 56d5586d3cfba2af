"""Tests for main memory and the logging memory controller."""

from repro.mem.log import ReviveLog
from repro.mem.memory import MainMemory


def make_memory():
    log = ReviveLog()
    return MainMemory(log), log


class TestWriteback:
    def test_first_writeback_logs_old_value(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, value=77, interval=1)
        assert mem.peek(10) == 77
        assert log.total_entries == 1
        assert log.banks[10 % log.n_banks][0].old_value == 0

    def test_second_writeback_same_interval_suppressed(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 1, interval=1)
        logged = mem.writeback(2.0, 0, 10, 2, interval=1)
        assert not logged
        assert log.total_entries == 1
        assert mem.peek(10) == 2
        assert mem.suppressed_logs == 1

    def test_new_interval_logs_again(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 1, interval=1)
        logged = mem.writeback(2.0, 0, 10, 2, interval=2)
        assert logged
        assert log.total_entries == 2

    def test_different_pids_log_independently(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 1, interval=1)
        logged = mem.writeback(2.0, 1, 10, 2, interval=1)
        assert logged  # pid 1's first writeback of the line
        assert log.total_entries == 2

    def test_end_interval_resets_filter(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 1, interval=1)
        mem.end_interval(0, 1)
        # New interval id comes with the rotation anyway, but even a
        # repeat of the same id must log afresh after end_interval.
        logged = mem.writeback(2.0, 0, 10, 2, interval=1)
        assert logged


class TestRestore:
    def test_restore_rewinds_to_checkpoint_image(self):
        mem, _ = make_memory()
        mem.writeback(1.0, 0, 10, 111, interval=1)   # ckpt-1 image
        mem.writeback(2.0, 0, 10, 222, interval=2)   # interval-2 data
        entries = mem.restore({0: 1})
        assert len(entries) == 1
        assert mem.peek(10) == 111

    def test_restore_multiple_lines_reverse_order(self):
        mem, _ = make_memory()
        mem.writeback(1.0, 0, 10, 1, interval=2)
        mem.writeback(2.0, 0, 11, 2, interval=2)
        mem.writeback(3.0, 0, 10, 3, interval=3)
        mem.restore({0: 1})
        assert mem.peek(10) == 0
        assert mem.peek(11) == 0

    def test_restore_preserves_other_pids(self):
        mem, _ = make_memory()
        mem.writeback(1.0, 0, 10, 5, interval=2)
        mem.writeback(2.0, 1, 20, 6, interval=2)
        mem.restore({0: 0})
        assert mem.peek(10) == 0
        assert mem.peek(20) == 6

    def test_restore_discards_log_entries(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 5, interval=1)
        mem.restore({0: 0})
        assert log.live_entries() == 0

    def test_restore_resets_first_wb_filter(self):
        mem, log = make_memory()
        mem.writeback(1.0, 0, 10, 5, interval=2)
        mem.restore({0: 1})
        logged = mem.writeback(2.0, 0, 10, 7, interval=2)
        assert logged  # re-executed interval logs afresh

    def test_delayed_writeback_interleaving_restores_exactly(self):
        """The interval-tagging scenario of the undo log (mem/log.py).

        Interval 1's delayed drain (value at the checkpoint) interleaves
        in wall-clock time with interval 2's eviction of the same line.
        Rolling back to checkpoint 1 must land on the checkpoint image,
        not the pre-interval-1 value.
        """
        mem, _ = make_memory()
        # Interval-1 eviction of line X (old = 0).
        mem.writeback(1.0, 0, 10, 100, interval=1)
        # Checkpoint 1 begins (delayed).  Interval 2 starts; a new write
        # to X forces the delayed copy out first — but X was already
        # logged in interval 1 so the log suppresses it.
        mem.writeback(2.0, 0, 10, 150, interval=1)   # drain (suppressed)
        # Interval 2 then evicts its own update of X.
        mem.writeback(3.0, 0, 10, 200, interval=2)
        mem.restore({0: 1})
        assert mem.peek(10) == 150  # the checkpoint-1 image

    def test_snapshot(self):
        mem, _ = make_memory()
        mem.writeback(1.0, 0, 10, 5, interval=1)
        snap = mem.snapshot([10, 11])
        assert snap == {10: 5, 11: 0}
