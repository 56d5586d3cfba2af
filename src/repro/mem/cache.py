"""Set-associative cache models for the private L1/L2 hierarchy.

The L1 is write-through and the L2 write-back, as in Figure 4.3(a).  The
L2 additionally carries the per-line *Delayed* bit used by the delayed
writeback optimization (Section 4.1).

Addresses are cache-line numbers (integers); byte quantities are derived
with :data:`repro.params.LINE_BYTES` only for statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.params import CacheConfig

# MESI states kept in the private L2 (the L1 holds read-only copies and is
# kept inclusive with respect to the L2).
INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


class CacheLine:
    """One resident cache line: MESI state, value, dirty and Delayed bits."""

    __slots__ = ("addr", "state", "value", "dirty", "delayed")

    def __init__(self, addr: int, state: int, value: int):
        self.addr = addr
        self.state = state
        self.value = value
        self.dirty = state == MODIFIED
        self.delayed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("D" if self.dirty else "") + ("w" if self.delayed else "")
        return f"<Line {self.addr:#x} {STATE_NAMES[self.state]}{flags}>"


class Cache:
    """An LRU set-associative cache holding :class:`CacheLine` objects.

    Eviction policy is true LRU per set (``OrderedDict`` recency order).
    ``insert`` returns the victim line, if any, so the coherence engine can
    write back dirty data and update the directory.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        # Address -> line direct map over all sets: lookup/peek are one
        # dict probe; the per-set OrderedDicts keep carrying the LRU
        # recency order (and are the eviction authority).  The
        # coherence engine probes it directly on every access.
        self._map: dict[int, CacheLine] = {}
        self.n_hits = 0
        self.n_misses = 0
        self._n_resident = 0          # O(1) len() (kept by insert/remove)

    # -- basic operations -------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None; updates LRU order on hit."""
        line = self._map.get(addr)
        if line is None:
            self.n_misses += 1
            return None
        if touch:
            self._sets[addr % self.n_sets].move_to_end(addr)
        self.n_hits += 1
        return line

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line without perturbing LRU or counters."""
        return self._map.get(addr)

    def insert(self, addr: int, state: int, value: int
               ) -> tuple[CacheLine, Optional[CacheLine]]:
        """Install ``addr``; returns ``(new_line, evicted_line_or_None)``."""
        cset = self._sets[addr % self.n_sets]
        line = self._map.get(addr)
        if line is not None:  # refill over an existing line: update in place
            line.state = state
            line.value = value
            cset.move_to_end(addr)
            return line, None
        victim = None
        if len(cset) >= self.assoc:
            _, victim = cset.popitem(last=False)
            del self._map[victim.addr]
            self._n_resident -= 1
        line = CacheLine(addr, state, value)
        cset[addr] = line
        self._map[addr] = line
        self._n_resident += 1
        return line, victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove ``addr`` if present and return the removed line."""
        line = self._map.pop(addr, None)
        if line is not None:
            del self._sets[addr % self.n_sets][addr]
            self._n_resident -= 1
        return line

    def invalidate_all(self) -> int:
        """Flash-invalidate the whole cache (rollback); returns line count."""
        count = self._n_resident
        for cset in self._sets:
            cset.clear()
        self._map.clear()
        self._n_resident = 0
        return count

    # -- iteration helpers -------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        for cset in self._sets:
            yield from cset.values()

    def dirty_lines(self) -> list[CacheLine]:
        """All lines with the Dirty bit set (checkpoint writeback set)."""
        return [ln for ln in self.lines() if ln.dirty]

    def delayed_lines(self) -> list[CacheLine]:
        """All lines with the Delayed bit set (Section 4.1)."""
        return [ln for ln in self.lines() if ln.delayed]

    def resident(self, addr: int) -> bool:
        return addr in self._map

    def __len__(self) -> int:
        return self._n_resident


class L1Cache:
    """The write-through L1: a presence-only filter in front of the L2.

    Stores always propagate to the L2 (write-through, Section 3.3); loads
    that hit here cost ``hit_cycles``.  Inclusion with the L2 is enforced
    by the coherence engine, which invalidates L1 copies whenever the L2
    line is invalidated or evicted.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        # Address -> owning set direct map: the residency filter the
        # coherence engine's load probes.  Membership here is *exactly*
        # ``contains`` membership (maintained on every fill and
        # invalidation), so a map hit is an L1 hit.
        self._map: dict[int, OrderedDict] = {}
        self.n_hits = 0
        self.n_misses = 0
        self._n_resident = 0          # O(1) len() (kept by fill/remove)

    def contains(self, addr: int) -> bool:
        cset = self._map.get(addr)
        if cset is not None:
            cset.move_to_end(addr)
            self.n_hits += 1
            return True
        self.n_misses += 1
        return False

    def fill(self, addr: int) -> None:
        cset = self._sets[addr % self.n_sets]
        if addr in cset:
            cset.move_to_end(addr)
            return
        if len(cset) >= self.assoc:
            victim_addr, _ = cset.popitem(last=False)
            del self._map[victim_addr]
            self._n_resident -= 1
        cset[addr] = True
        self._map[addr] = cset
        self._n_resident += 1

    def invalidate(self, addr: int) -> None:
        cset = self._map.pop(addr, None)
        if cset is not None:
            del cset[addr]
            self._n_resident -= 1

    def invalidate_all(self) -> int:
        count = self._n_resident
        for cset in self._sets:
            cset.clear()
        self._map.clear()
        self._n_resident = 0
        return count

    def __len__(self) -> int:
        return self._n_resident
