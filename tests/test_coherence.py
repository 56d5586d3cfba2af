"""Tests for the MESI coherence engine and its LW-ID/Dep hooks.

Every case runs on the compiled core (the production engine) through
its read-only accessors; the ``...Oracle`` classes re-run the same
cases on the Python oracle.
"""

import pytest

from repro.coherence.core import CompiledEngine
from repro.coherence.directory import EXCL, SHARED, UNCACHED
from repro.coherence.protocol import CoherenceEngine, DependenceTracker
from repro.interconnect import Interconnect
from repro.mem import EXCLUSIVE, MODIFIED, ReviveLog
from repro.mem import SHARED as L_SHARED
from tests.conftest import tiny_config


class RecordingTracker(DependenceTracker):
    """Claims everything; records all calls (unit-test double)."""

    enabled = True

    def __init__(self):
        self.writes = []
        self.producer_records = []
        self.consumer_records = []
        self.left_cache = []
        self.claim = True

    def on_write(self, pid, addr):
        self.writes.append((pid, addr))

    def record_dependence(self, consumer, producer, addr):
        self.producer_records.append((consumer, producer))
        if self.claim:
            self.consumer_records.append((producer, consumer, addr, True))
        return self.claim

    def on_line_left_cache(self, pid, addr, now):
        self.left_cache.append((pid, addr))


class EngineCase:
    """Builds the engine under test (the compiled core by default)."""

    engine_cls = CompiledEngine

    def make_engine(self, n_cores=4, tracker=None, **over):
        config = tiny_config(n_cores=n_cores, **over)
        tracker = tracker if tracker is not None else RecordingTracker()
        engine = self.engine_cls(config, ReviveLog(), Interconnect(config),
                                 tracker)
        return engine, tracker


class TestLoads(EngineCase):
    def test_cold_load_grants_exclusive_and_stamps_lwid(self):
        engine, _ = self.make_engine()
        latency = engine.load(0, 100, 0.0)
        entry = engine.peek_entry(100)
        assert entry.mode == EXCL
        assert entry.owner == 0
        # RDX semantics: a load that finds the line uncached stamps LW-ID
        # because the core may later write silently (Figure 3.2a).
        assert entry.lw_id == 0
        assert latency >= engine.config.memory_cycles

    def test_l1_then_l2_hits(self):
        engine, _ = self.make_engine()
        engine.load(0, 100, 0.0)
        assert engine.load(0, 100, 10.0) == engine.config.l1.hit_cycles
        # Two lines of the same 2-way L1 set, other L2 sets, push line
        # 100 out of the L1 only.
        engine.load(0, 104, 11.0)
        engine.load(0, 112, 12.0)
        assert not engine.l1_holds(0, 100)
        assert engine.peek_line(0, 100) is not None
        assert engine.load(0, 100, 20.0) == engine.config.l2.hit_cycles

    def test_read_from_owner_downgrades_to_shared(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 7, 0.0)
        latency = engine.load(1, 100, 10.0)
        entry = engine.peek_entry(100)
        assert entry.mode == SHARED
        assert entry.sharers == 0b11
        assert engine.peek_line(0, 100).state == L_SHARED
        assert not engine.peek_line(0, 100).dirty  # sharing writeback
        assert engine.memory.peek(100) == 7
        assert latency >= engine.config.remote_l2_cycles

    def test_read_records_dependence(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 7, 0.0)
        engine.load(1, 100, 10.0)
        assert (1, 0) in tracker.producer_records
        assert (0, 1, 100, True) in tracker.consumer_records

    def test_no_wr_clears_stale_lwid(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 7, 0.0)
        engine.load(1, 100, 10.0)        # line now SHARED, lw=0
        tracker.claim = False            # WSIG cleared by a checkpoint
        engine.load(2, 100, 20.0)
        entry = engine.peek_entry(100)
        assert entry.lw_id is None       # lazily cleared (Section 3.3.2)
        # The consumer's MyProducers was still set (superset semantics).
        assert (2, 0) in tracker.producer_records

    def test_self_dependence_not_recorded(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 7, 0.0)
        engine.checkpoint_writeback(0, 1.0)     # line now clean in L2
        # Four more lines of the same 4-way L2 set evict line 100.
        for i, addr in enumerate((108, 116, 124, 132)):
            engine.load(0, addr, 2.0 + i)
        assert engine.peek_line(0, 100) is None
        assert engine.peek_entry(100).lw_id == 0  # LW-ID survives eviction
        engine.load(0, 100, 10.0)               # reader == last writer
        assert tracker.producer_records == []


class TestStores(EngineCase):
    def test_store_miss_takes_modified(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        line = engine.peek_line(0, 100)
        assert line.state == MODIFIED
        assert line.dirty
        assert line.value == 5
        assert (0, 100) in tracker.writes

    def test_silent_e_to_m_upgrade(self):
        engine, _ = self.make_engine()
        engine.load(0, 100, 0.0)                  # E grant
        base = engine.tally()["base_messages"]
        latency = engine.store(0, 100, 9, 10.0)
        assert latency == engine.config.l2.hit_cycles
        assert engine.tally()["base_messages"] == base  # no traffic
        assert engine.peek_line(0, 100).state == MODIFIED

    def test_upgrade_invalidates_sharers(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 1, 0.0)
        engine.load(1, 100, 10.0)
        engine.load(2, 100, 20.0)
        engine.store(1, 100, 2, 30.0)
        entry = engine.peek_entry(100)
        assert entry.mode == EXCL
        assert entry.owner == 1
        assert entry.lw_id == 1
        assert engine.peek_line(0, 100) is None
        assert engine.peek_line(2, 100) is None

    def test_waw_transfer_from_owner(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 1, 0.0)
        engine.store(1, 100, 2, 10.0)
        entry = engine.peek_entry(100)
        assert entry.owner == 1
        assert engine.peek_line(0, 100) is None
        # WAW dependence recorded (WR row of Figure 3.2a).
        assert (1, 0) in tracker.producer_records
        # Dirty M->M transfer: memory not updated.
        assert engine.memory.peek(100) == 0

    def test_store_value_visible_to_reader(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 42, 0.0)
        engine.load(1, 100, 10.0)
        assert engine.peek_line(1, 100).value == 42


class TestEvictionAndWriteback(EngineCase):
    def test_dirty_eviction_logs_old_value(self):
        engine, _ = self.make_engine()
        # Fill one L2 set (4 ways at 32 lines / 8 sets) and overflow it.
        n_sets = engine.config.l2.n_sets
        addrs = [i * n_sets for i in range(5)]
        for addr in addrs:
            engine.store(0, addr, addr + 1, 0.0)
        assert engine.memory.log.total_entries >= 1
        assert engine.memory.peek(addrs[0]) == addrs[0] + 1

    def test_checkpoint_writeback_cleans_lines(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        engine.store(0, 101, 6, 1.0)
        done, n_lines = engine.checkpoint_writeback(0, 10.0)
        assert n_lines == 2
        assert done > 10.0
        for addr in (100, 101):
            line = engine.peek_line(0, addr)
            assert line.state == EXCLUSIVE
            assert not line.dirty
            assert engine.memory.peek(addr) in (5, 6)
        assert engine.dirty_line_addrs(0) == []

    def test_mark_and_complete_delayed(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        assert engine.mark_delayed(0) == 1
        assert engine.peek_line(0, 100).delayed
        count = engine.complete_delayed(0, 20.0, interval=1)
        assert count == 1
        assert not engine.peek_line(0, 100).delayed
        assert engine.memory.peek(100) == 5

    def test_store_to_delayed_line_forces_writeback(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        engine.mark_delayed(0)
        engine.store(0, 100, 6, 10.0)
        line = engine.peek_line(0, 100)
        assert not line.delayed
        assert line.dirty
        assert engine.memory.peek(100) == 5    # checkpoint copy flushed
        assert (0, 100) in tracker.left_cache

    def test_remote_read_of_delayed_line_flushes_first(self):
        engine, tracker = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        engine.mark_delayed(0)
        engine.load(1, 100, 10.0)
        assert engine.memory.peek(100) == 5
        assert (0, 100) in tracker.left_cache

    def test_invalidate_core_purges_everything(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 5, 0.0)
        engine.load(0, 200, 1.0)
        n = engine.invalidate_core(0)
        assert n == 2
        assert engine.resident_lines(0) == 0
        assert engine.peek_entry(100).mode == UNCACHED
        assert engine.peek_entry(100).lw_id is None


class TestMessageAccounting(EngineCase):
    def test_dedicated_lw_query_counts_dep_messages(self):
        engine, _ = self.make_engine()
        engine.store(0, 100, 1, 0.0)
        engine.load(1, 100, 10.0)      # fwd to owner: piggybacked
        piggy = engine.tally()["dep_messages"]
        engine.load(2, 100, 20.0)      # from memory: dedicated query
        assert engine.tally()["dep_messages"] > piggy

    def test_golden_model_checks_loads(self):
        engine, _ = self.make_engine(check_coherence=True)
        engine.store(0, 100, 5, 0.0)
        engine.load(1, 100, 10.0)      # must not raise
        engine.golden[100] = 999       # corrupt the golden image
        with pytest.raises(AssertionError):
            engine.load(2, 100, 20.0)


class TestLoadsOracle(TestLoads):
    engine_cls = CoherenceEngine


class TestStoresOracle(TestStores):
    engine_cls = CoherenceEngine


class TestEvictionAndWritebackOracle(TestEvictionAndWriteback):
    engine_cls = CoherenceEngine


class TestMessageAccountingOracle(TestMessageAccounting):
    engine_cls = CoherenceEngine
