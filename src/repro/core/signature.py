"""The Write Signature (WSIG): a Bloom filter over written line addresses.

A 512–1024 bit register in each L2 controller encoding every line the
processor wrote (or read exclusively) in the current checkpoint interval
(Section 3.3.2).  Membership tests can return false positives — which
only ever cause extra (conservative) dependences — but never false
negatives.

An exact shadow set is maintained *for statistics only*: the harness uses
it to report the ICHK inflation caused by false positives (Table 6.1,
row 1).  The hardware behaviour is driven exclusively by the Bloom bits.
"""

from __future__ import annotations


def _mix(value: int, salt: int) -> int:
    """Cheap deterministic 64-bit hash (xorshift-multiply)."""
    x = (value ^ (salt * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


#: addr -> OR-mask of its hash positions, shared by every signature with
#: the same geometry (addresses are cache-line numbers, so the working
#: set is small and revisited constantly by all cores).  Bounded so a
#: long-lived process running many workloads doesn't accumulate every
#: app's address space forever; on overflow the dict is cleared and
#: simply recomputes (it is a pure cache).
_MASK_CACHES: dict[tuple[int, int], dict[int, int]] = {}
_MASK_CACHE_LIMIT = 1 << 17


class WriteSignature:
    """Bloom-filter write signature with an exact shadow for statistics."""

    __slots__ = ("n_bits", "n_hashes", "bits", "exact", "tests",
                 "false_positives", "_masks")

    def __init__(self, n_bits: int = 1024, n_hashes: int = 4):
        if n_bits <= 0 or n_bits & (n_bits - 1):
            raise ValueError("wsig_bits must be a positive power of two")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = 0
        self.exact: set[int] = set()
        self.tests = 0
        self.false_positives = 0
        self._masks = _MASK_CACHES.setdefault((n_bits, n_hashes), {})

    def _positions(self, addr: int):
        mask = self.n_bits - 1
        for salt in range(self.n_hashes):
            yield _mix(addr, salt + 1) & mask

    def _mask(self, addr: int) -> int:
        """The address's n_hashes set bits, folded into one integer."""
        mask = self._masks.get(addr)
        if mask is None:
            mask = 0
            for pos in self._positions(addr):
                mask |= 1 << pos
            if len(self._masks) >= _MASK_CACHE_LIMIT:
                self._masks.clear()
            self._masks[addr] = mask
        return mask

    def add(self, addr: int) -> None:
        mask = self._masks.get(addr)
        if mask is None:
            mask = self._mask(addr)
        self.bits |= mask
        self.exact.add(addr)

    def test(self, addr: int) -> tuple[bool, bool]:
        """Membership test: ``(claims, genuine)``.

        ``claims`` is the hardware answer (Bloom); ``genuine`` is the
        exact-shadow truth.  ``claims and not genuine`` is a false
        positive; ``not claims`` is always genuine-negative: a false
        negative raises :class:`AssertionError`, under ``python -O``
        too.
        """
        self.tests += 1
        mask = self._masks.get(addr)
        if mask is None:
            mask = self._mask(addr)
        claims = self.bits & mask == mask
        genuine = addr in self.exact
        if claims and not genuine:
            self.false_positives += 1
        if genuine and not claims:
            raise AssertionError(
                f"Bloom filter false negative: line {addr:#x} was written "
                f"but the signature misses it")
        return claims, genuine

    def clear(self) -> None:
        """Cleared at the beginning of every checkpoint interval."""
        self.bits = 0
        self.exact.clear()

    def merge(self, other: "WriteSignature") -> None:
        """Fold another signature in (Dep-set merge; conservative)."""
        self.bits |= other.bits
        self.exact |= other.exact

    @property
    def occupancy(self) -> float:
        """Fraction of bits set (drives the false-positive rate)."""
        return self.bits.bit_count() / self.n_bits

    def __contains__(self, addr: int) -> bool:
        mask = self._mask(addr)
        return self.bits & mask == mask

    def __len__(self) -> int:
        return len(self.exact)
