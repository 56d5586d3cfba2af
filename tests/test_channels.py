"""Tests for the memory-channel timing model."""

from repro.mem.channels import MemoryChannels
from tests.conftest import tiny_config


def make_channels(**over):
    return MemoryChannels(tiny_config(**over))


class TestDemandPath:
    def test_idle_channel_no_extra_latency(self):
        channels = make_channels()
        extra, ckpt = channels.demand_access(100.0, addr=0)
        assert extra == 0.0
        assert ckpt == 0.0

    def test_back_to_back_demand_queues(self):
        channels = make_channels()
        channels.demand_access(100.0, 0)
        extra, _ = channels.demand_access(100.0, 0)   # same channel
        assert extra > 0

    def test_channels_independent(self):
        channels = make_channels()
        channels.demand_access(100.0, 0)
        extra, _ = channels.demand_access(100.0, 1)   # other channel
        assert extra == 0.0

    def test_checkpoint_writeback_interferes_boundedly(self):
        channels = make_channels()
        for addr in range(0, 40, 2):  # pile writebacks on channel 0
            channels.writeback(100.0, addr, logged=True, checkpoint=True)
        extra, ckpt = channels.demand_access(100.0, 0)
        assert 0 < extra
        assert ckpt > 0
        # Demand priority: bounded by the stream-scaled cap, not the
        # full backlog.
        backlog = channels.wb_busy[0] - 100.0
        assert extra < backlog

    def test_non_checkpoint_writebacks_not_attributed(self):
        channels = make_channels()
        channels.writeback(100.0, 0, logged=True, checkpoint=False)
        channels.writeback(100.0, 0, logged=True, checkpoint=False)
        _, ckpt = channels.demand_access(100.0, 0)
        assert ckpt == 0.0


class TestWritebackPath:
    def test_writeback_queues_fifo(self):
        channels = make_channels()
        first = channels.writeback(100.0, 0, logged=True, checkpoint=True)
        second = channels.writeback(100.0, 0, logged=True, checkpoint=True)
        assert second > first

    def test_logged_writeback_costs_more(self):
        channels = make_channels()
        logged = channels.writeback(100.0, 0, logged=True, checkpoint=False)
        channels2 = make_channels()
        plain = channels2.writeback(100.0, 0, logged=False, checkpoint=False)
        assert logged - 100.0 > plain - 100.0

    def test_checkpoint_writebacks_queue_per_channel(self):
        # A burst of ten checkpoint writebacks at once: the last one
        # completes no earlier than the channels can serve them all.
        channels = make_channels()
        done = max(channels.writeback(0.0, addr, logged=True,
                                      checkpoint=True)
                   for addr in range(10))
        assert done >= 10 / channels.n * channels.config.dram_occupancy

    def test_priority_writeback_jumps_queue(self):
        channels = make_channels()
        for addr in range(0, 60, 2):
            channels.writeback(100.0, addr, logged=True, checkpoint=True)
        queued = channels.writeback(100.0, 0, logged=True, checkpoint=True)
        priority = channels.priority_writeback(100.0, 0)
        assert priority < queued

    def test_priority_writeback_contention_scales_with_streams(self):
        quiet = make_channels()
        busy = make_channels()
        for _ in range(32):
            busy.bg_start()
        assert busy.priority_writeback(0.0, 0) > \
            quiet.priority_writeback(0.0, 0)


class TestBackgroundStreams:
    def test_stream_counting(self):
        channels = make_channels()
        channels.bg_start()
        channels.bg_start()
        assert channels.bg_streams == 2
        channels.bg_stop()
        channels.bg_stop()
        channels.bg_stop()          # extra stop clamps at zero
        assert channels.bg_streams == 0

    def test_drain_time_scales_with_lines_and_contention(self):
        channels = make_channels()
        short = channels.bg_drain_time(10, period=12)
        long = channels.bg_drain_time(100, period=12)
        assert long > short
        for _ in range(20):
            channels.bg_start()
        contended = channels.bg_drain_time(100, period=12)
        assert contended > long

    def test_bg_account_raises_ckpt_horizon(self):
        channels = make_channels()
        channels.bg_account(100.0, n_lines=50, window=1_000.0)
        assert channels.ckpt_wb_busy[0] > 100.0
        _, ckpt = channels.demand_access(110.0, 0)
        assert ckpt > 0


class TestRestore:
    def test_restore_parallelizes_across_banks(self):
        channels = make_channels()
        done = channels.restore(0.0, n_entries=100)
        serial = 100 * channels.config.restore_occupancy
        assert done < serial
        assert done >= serial / channels.n

    def test_restore_zero_entries_instant(self):
        channels = make_channels()
        assert channels.restore(42.0, 0) == 42.0
