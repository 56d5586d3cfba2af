"""Tests for trace records, address allocation and configuration."""

import pytest

from repro.interconnect import Interconnect, MessageClass
from repro.params import CacheConfig, MachineConfig, Scheme
from repro.sim.stats import SimStats
from repro.trace import (
    AddressSpace,
    BARRIER,
    COMPUTE,
    LOAD,
    LOCK,
    STORE,
    UNLOCK,
    trace_instruction_count,
)


class TestAddressSpace:
    def test_regions_disjoint(self):
        space = AddressSpace()
        a = space.region(10)
        b = space.region(5)
        assert set(a).isdisjoint(set(b))
        assert len(a) == 10 and len(b) == 5

    def test_sync_lines_never_collide_with_data(self):
        space = AddressSpace()
        data = space.region(1000)
        sync = space.sync_line()
        assert sync not in data
        assert sync >= AddressSpace.SYNC_BASE

    def test_sync_lines_unique(self):
        space = AddressSpace()
        lines = {space.sync_line() for _ in range(100)}
        assert len(lines) == 100


class TestTraceCounting:
    def test_compute_counts_bulk(self):
        assert trace_instruction_count([(COMPUTE, 500)]) == 500

    def test_memory_and_sync_ops_count_one(self):
        trace = [(LOAD, 1), (STORE, 2), (LOCK, 0), (UNLOCK, 0)]
        assert trace_instruction_count(trace) == 4

    def test_barrier_records_do_not_count(self):
        # Barrier work is added by the simulator's RMW expansion.
        assert trace_instruction_count([(BARRIER, 0)]) == 0


class TestScheme:
    def test_flags(self):
        assert Scheme.REBOUND.is_local
        assert not Scheme.GLOBAL.is_local
        assert Scheme.REBOUND.delayed_writebacks
        assert not Scheme.REBOUND_NODWB.delayed_writebacks
        assert Scheme.GLOBAL_DWB.delayed_writebacks
        assert Scheme.REBOUND_BARR.barrier_optimization
        assert Scheme.REBOUND_NODWB_BARR.barrier_optimization
        assert not Scheme.REBOUND.barrier_optimization
        assert Scheme.REBOUND.tracks_dependences
        assert not Scheme.NONE.tracks_dependences


class TestMachineConfig:
    def test_paper_defaults_match_fig4_3a(self):
        config = MachineConfig.paper()
        assert config.n_cores == 64
        assert config.l1.size_bytes == 16 * 1024 and config.l1.assoc == 4
        assert config.l2.size_bytes == 256 * 1024 and config.l2.assoc == 8
        assert config.l1.line_bytes == 32
        assert config.checkpoint_interval == 4_000_000
        assert config.n_dep_sets == 4
        assert config.wsig_bits == 1024
        assert config.n_mem_channels == 2
        assert config.remote_l2_cycles == 60
        assert config.memory_cycles == 200

    def test_scaled_preserves_ratio(self):
        paper = MachineConfig.paper()
        scaled = MachineConfig.scaled(scale=40)
        paper_ratio = paper.l2.n_lines / paper.checkpoint_interval
        scaled_ratio = scaled.l2.n_lines / scaled.checkpoint_interval
        assert scaled_ratio == pytest.approx(paper_ratio, rel=0.35)

    def test_with_scheme_copies(self):
        config = MachineConfig.scaled()
        other = config.with_scheme(Scheme.GLOBAL)
        assert other.scheme is Scheme.GLOBAL
        assert config.scheme is Scheme.REBOUND
        assert other.l2 == config.l2

    def test_cache_geometry(self):
        cache = CacheConfig(1024, 4, 32)
        assert cache.n_lines == 32
        assert cache.n_sets == 8


class TestInterconnect:
    def test_message_classes_counted_separately(self):
        net = Interconnect(MachineConfig.scaled(n_cores=4))
        net.send(MessageClass.BASE, 10)
        net.send(MessageClass.DEP, 2)
        net.send(MessageClass.PROTOCOL, 5)
        assert net.base_messages == 10
        assert net.dep_messages == 2
        assert net.protocol_messages == 5

    def test_dep_overhead_zero_without_traffic(self):
        config = MachineConfig.scaled(n_cores=4)
        net = Interconnect(config)
        assert (net.base_messages, net.dep_messages, net.protocol_messages) == (0, 0, 0)
        stats = SimStats(config=config, scheme=config.scheme, workload="unit",
                         base_messages=net.base_messages,
                         dep_messages=net.dep_messages)
        assert stats.dep_message_percent() == 0.0
