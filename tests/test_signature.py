"""Tests for the WSIG Bloom-filter write signature (Section 3.3.2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import WriteSignature


class TestBasics:
    def test_empty_signature_claims_nothing(self):
        sig = WriteSignature(256, 4)
        claims, genuine = sig.test(0x1234)
        assert not claims
        assert not genuine

    def test_added_address_always_found(self):
        sig = WriteSignature(256, 4)
        sig.add(42)
        claims, genuine = sig.test(42)
        assert claims
        assert genuine

    def test_clear_resets_everything(self):
        sig = WriteSignature(256, 4)
        for addr in range(50):
            sig.add(addr)
        sig.clear()
        assert sig.bits == 0
        assert len(sig) == 0
        claims, _ = sig.test(7)
        assert not claims

    def test_contains_matches_test(self):
        sig = WriteSignature(512, 4)
        sig.add(99)
        assert 99 in sig
        claims, _ = sig.test(99)
        assert claims

    def test_occupancy_grows_with_inserts(self):
        sig = WriteSignature(256, 4)
        assert sig.occupancy == 0.0
        sig.add(1)
        first = sig.occupancy
        for addr in range(2, 40):
            sig.add(addr)
        assert sig.occupancy > first

    def test_false_negative_raises(self):
        sig = WriteSignature(256, 4)
        sig.add(7)
        sig.bits = 0
        with pytest.raises(AssertionError,
                           match="false negative: line 0x7"):
            sig.test(7)

    def test_false_negative_raises_under_python_O(self):
        script = ("from repro.core.signature import WriteSignature\n"
                  "sig = WriteSignature(256, 4)\n"
                  "sig.add(7)\n"
                  "sig.bits = 0\n"
                  "sig.test(7)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode != 0
        assert "AssertionError: Bloom filter false negative" in proc.stderr

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ValueError):
            WriteSignature(1000, 4)
        with pytest.raises(ValueError):
            WriteSignature(0, 4)

    def test_false_positive_counted(self):
        # A tiny filter saturates quickly: fill it and probe others.
        sig = WriteSignature(16, 2)
        for addr in range(64):
            sig.add(addr)
        before = sig.false_positives
        hits = 0
        for addr in range(1000, 1200):
            claims, genuine = sig.test(addr)
            if claims and not genuine:
                hits += 1
        assert sig.false_positives == before + hits
        assert hits > 0  # a saturated 16-bit filter must alias

    def test_merge_unions_both_filters(self):
        a = WriteSignature(256, 4)
        b = WriteSignature(256, 4)
        a.add(1)
        b.add(2)
        a.merge(b)
        assert 1 in a and 2 in a
        assert a.exact == {1, 2}


class TestProperties:
    @given(st.sets(st.integers(min_value=0, max_value=2**48)),
           st.integers(min_value=0, max_value=2**48))
    @settings(max_examples=200, deadline=None)
    def test_no_false_negatives(self, members, probe):
        """The paper relies on this: false negatives are impossible."""
        sig = WriteSignature(128, 3)
        for addr in members:
            sig.add(addr)
        if probe in members:
            claims, genuine = sig.test(probe)
            assert claims and genuine

    @given(st.lists(st.integers(min_value=0, max_value=2**32),
                    min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_genuine_iff_inserted(self, addrs):
        sig = WriteSignature(1024, 4)
        inserted = set(addrs[: len(addrs) // 2])
        for addr in inserted:
            sig.add(addr)
        for addr in addrs:
            _, genuine = sig.test(addr)
            assert genuine == (addr in inserted)

    @given(st.sets(st.integers(min_value=0, max_value=2**32), max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_merge_preserves_no_false_negatives(self, members):
        half = len(members) // 2
        as_list = sorted(members)
        a = WriteSignature(128, 3)
        b = WriteSignature(128, 3)
        for addr in as_list[:half]:
            a.add(addr)
        for addr in as_list[half:]:
            b.add(addr)
        a.merge(b)
        for addr in members:
            claims, genuine = a.test(addr)
            assert claims and genuine
