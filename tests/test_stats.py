"""Tests for statistics assembly and derived metrics."""

from repro.params import MachineConfig, Scheme
from repro.sim.stats import CheckpointEvent, CoreStats, RollbackEvent, SimStats


def make_stats(n_cores=4, scheme=Scheme.REBOUND):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme)
    stats = SimStats(config=config, scheme=scheme, workload="unit")
    stats.cores = [CoreStats() for _ in range(n_cores)]
    return stats


class TestDerivedMetrics:
    def test_overhead_vs_baseline(self):
        base = make_stats()
        base.runtime = 1000.0
        run = make_stats()
        run.runtime = 1100.0
        assert abs(run.overhead_vs(base) - 0.10) < 1e-12

    def test_overhead_vs_zero_baseline(self):
        base = make_stats()
        run = make_stats()
        assert run.overhead_vs(base) == 0.0

    def test_mean_ichk_counts_interval_and_io_only(self):
        stats = make_stats(n_cores=4)
        stats.checkpoints = [
            CheckpointEvent(0, 0, "interval", 2, 2, 0, 0),
            CheckpointEvent(1, 0, "io", 4, 4, 0, 0),
            CheckpointEvent(2, 0, "global", 4, 4, 0, 0),   # excluded
            CheckpointEvent(3, 0, "barrier", 4, 4, 0, 0),  # excluded
        ]
        assert stats.mean_ichk_fraction() == (2 + 4) / (2 * 4)

    def test_fp_increase_percent(self):
        stats = make_stats(n_cores=4)
        stats.checkpoints = [CheckpointEvent(0, 0, "interval", 3, 2, 0, 0)]
        assert abs(stats.ichk_fp_increase_percent() - 50.0) < 1e-9

    def test_fp_increase_zero_when_no_checkpoints(self):
        stats = make_stats()
        assert stats.ichk_fp_increase_percent() == 0.0

    def test_breakdown_sums_core_categories(self):
        stats = make_stats(n_cores=2)
        stats.cores[0].wb_delay = 10.0
        stats.cores[1].wb_delay = 5.0
        stats.cores[0].ipc_delay = 3.0
        stats.cores[1].depset_stall = 2.0
        breakdown = stats.breakdown()
        assert breakdown["WBDelay"] == 15.0
        assert breakdown["IPCDelay"] == 3.0
        assert breakdown["SyncDelay"] == 2.0

    def test_dep_message_percent(self):
        stats = make_stats()
        assert stats.dep_message_percent() == 0.0   # no traffic
        stats.base_messages = 200
        stats.dep_messages = 10
        assert abs(stats.dep_message_percent() - 5.0) < 1e-9

    def test_mean_recovery_latency(self):
        stats = make_stats()
        stats.rollbacks = [
            RollbackEvent(0, 0, 1, 100.0, 0, 1, 0),
            RollbackEvent(1, 0, 1, 300.0, 0, 1, 0),
        ]
        assert stats.mean_recovery_latency() == 200.0

    def test_effective_ckpt_interval(self):
        stats = make_stats(n_cores=2)
        stats.cores[0].ckpt_gap_sum = 100.0
        stats.cores[0].ckpt_gap_count = 2
        stats.cores[1].ckpt_gap_count = 0     # never checkpointed
        assert stats.mean_effective_ckpt_interval() == 50.0

    def test_max_rollback_depth(self):
        stats = make_stats()
        assert stats.max_rollback_depth() == 0
        stats.rollbacks = [RollbackEvent(0, 0, 1, 1.0, 0, 3, 0)]
        assert stats.max_rollback_depth() == 3

    def test_summary_renders(self):
        stats = make_stats()
        stats.runtime = 12345.0
        text = stats.summary()
        assert "rebound" in text
        assert "12,345" in text


class TestCoreStats:
    def test_ckpt_overhead_cycles(self):
        core = CoreStats(wb_delay=1, wb_imbalance=2, ckpt_sync=3,
                         ipc_delay=4, depset_stall=5)
        assert core.ckpt_overhead_cycles == 15

    def test_mean_gap_empty(self):
        assert CoreStats().mean_ckpt_gap == 0.0
