"""Tests for the Dep register file (MyProducers/MyConsumers/WSIG sets)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dep_registers import DepRegisterFile, mask_to_pids


def make_file(n_sets=4) -> DepRegisterFile:
    return DepRegisterFile(pid=0, n_sets=n_sets, wsig_bits=128,
                           wsig_hashes=3)


class TestMaskHelpers:
    def test_mask_to_pids(self):
        assert mask_to_pids(0) == []
        assert mask_to_pids(0b1) == [0]
        assert mask_to_pids(0b1010010) == [1, 4, 6]

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_mask_to_pids_matches_a_shift_per_bit(self, mask):
        """The set-bit walk against the definition it replaced (one
        shift per bit position), up to bit 63."""
        expected, i, rest = [], 0, mask
        while rest:
            if rest & 1:
                expected.append(i)
            rest >>= 1
            i += 1
        assert mask_to_pids(mask) == expected


class TestRecording:
    def test_record_producer_sets_bit(self):
        file = make_file()
        file.record_producer(3)
        assert file.active.producers == 0b1000

    def test_on_write_populates_wsig(self):
        file = make_file()
        file.on_write(42)
        claims, genuine, dep = file.query_writer(42)
        assert claims and genuine
        assert dep is file.active

    def test_query_checks_newest_first(self):
        file = make_file()
        file.on_write(10)              # interval 1
        file.open_interval(100.0)
        file.on_write(10)              # interval 2 writes the same line
        claims, genuine, dep = file.query_writer(10)
        assert claims
        assert dep.interval_id == 2    # newest match wins (conservative)

    def test_query_falls_back_to_older_set(self):
        file = make_file()
        file.on_write(10)
        file.open_interval(100.0)
        claims, genuine, dep = file.query_writer(10)
        assert claims
        assert dep.interval_id == 1

    def test_record_consumer_in_matching_set(self):
        file = make_file()
        file.on_write(10)
        file.open_interval(100.0)
        _, _, dep = file.query_writer(10)
        file.record_consumer(dep, consumer=5, genuine=True)
        assert dep.consumers == 1 << 5
        assert dep.consumers_genuine == 1 << 5
        assert file.active.consumers == 0

    def test_fp_edge_not_genuine(self):
        file = make_file()
        file.on_write(10)
        dep = file.active
        file.record_consumer(dep, consumer=2, genuine=False)
        assert dep.consumers == 0b100
        assert dep.consumers_genuine == 0


class TestLifecycle:
    def test_open_interval_rotates(self):
        file = make_file()
        first = file.active
        file.open_interval(10.0)
        assert file.active is not first
        assert first.ckpt_started
        assert len(file.sets) == 2

    def test_recycle_requires_completion_plus_latency(self):
        file = make_file()
        file.open_interval(10.0)
        file.sets[0].ckpt_complete_time = 100.0
        file.recycle(now=150.0, detection_latency=100.0)
        assert len(file.sets) == 2     # only 50 cycles elapsed
        file.recycle(now=250.0, detection_latency=100.0)
        assert len(file.sets) == 1

    def test_incomplete_checkpoint_never_recycled(self):
        file = make_file()
        file.open_interval(10.0)
        file.recycle(now=1e12, detection_latency=1.0)
        assert len(file.sets) == 2     # writebacks still in flight

    def test_can_open_respects_capacity(self):
        file = make_file(n_sets=2)
        assert file.can_open_interval(0.0, 100.0)
        file.open_interval(1.0)
        assert not file.can_open_interval(2.0, 100.0)

    def test_stall_until(self):
        file = make_file(n_sets=2)
        file.open_interval(1.0)
        assert file.stall_until(100.0) is None   # oldest still open
        file.sets[0].ckpt_complete_time = 50.0
        assert file.stall_until(100.0) == 150.0

    def test_open_interval_asserts_capacity(self):
        file = make_file(n_sets=2)
        file.open_interval(1.0)
        with pytest.raises(AssertionError):
            file.open_interval(2.0)

    def test_force_open_merges_oldest(self):
        file = make_file(n_sets=2)
        file.active.producers = 0b10
        file.active.consumers = 0b100
        file.on_write(7)
        file.open_interval(1.0)
        file.active.producers = 0b1000
        file.on_write(9)
        merged = file.force_open(2.0)
        assert len(file.sets) == 2
        survivor = file.sets[0]
        # The merge unions masks and signatures (conservative).
        assert survivor.producers & 0b10
        assert survivor.producers & 0b1000
        assert survivor.consumers & 0b100
        claims, _, _ = file.query_writer(7)
        assert claims
        assert merged is file.active


class TestRollbackSupport:
    def test_consumers_after_unions_newer_intervals(self):
        file = make_file()
        file.active.consumers = 0b10          # interval 1
        file.active.consumers_genuine = 0b10
        file.open_interval(1.0)
        file.active.consumers = 0b100         # interval 2
        file.open_interval(2.0)
        file.active.consumers = 0b1000        # interval 3
        mask, genuine = file.consumers_after(1)
        assert mask == 0b1100
        assert genuine == 0
        mask_all, _ = file.consumers_after(0)
        assert mask_all == 0b1110

    def test_drop_rolled_back_clears_and_renumbers(self):
        file = make_file()
        file.open_interval(1.0)               # intervals 1, 2
        file.open_interval(2.0)               # intervals 1, 2, 3
        file.sets[0].ckpt_complete_time = 1.0
        file.drop_rolled_back(1, now=50.0)
        ids = [d.interval_id for d in file.sets]
        assert ids == [1, 2]                  # fresh interval renumbered 2
        assert file.active.producers == 0
        assert len(file.active.wsig) == 0
