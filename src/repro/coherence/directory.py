"""Full-map directory with the Rebound Last-Writer-ID field.

Each cache-line entry tracks the MESI sharing mode (uncached / shared /
exclusive-owner), a full-map sharer bit vector, and the **LW-ID**: the
processor that last wrote (or read exclusively) the line in the current
checkpoint interval (Section 3.3.1).

Two paper-faithful subtleties:

* Evicting a line does *not* clear its LW-ID — doing so would lose the
  ability to record dependences on the line (Section 3.3.1).
* LW-ID is allowed to go stale after a checkpoint; it is lazily cleared
  when the supposed writer answers a query with NO_WR (Section 3.3.2).
"""

from __future__ import annotations

from typing import Iterator, Optional

UNCACHED = 0
SHARED = 1
EXCL = 2


class DirEntry:
    """Directory state of one cache line."""

    __slots__ = ("addr", "mode", "owner", "sharers", "lw_id")

    def __init__(self, addr: int):
        self.addr = addr
        self.mode = UNCACHED
        self.owner: Optional[int] = None
        self.sharers = 0          # bit i set => core i holds a copy
        self.lw_id: Optional[int] = None

    def sharer_list(self) -> list[int]:
        """Sharer PIDs in ascending order (one step per set bit)."""
        out, mask = [], self.sharers
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = {UNCACHED: "U", SHARED: "S", EXCL: "E"}[self.mode]
        return (f"<Dir {self.addr:#x} {mode} owner={self.owner} "
                f"sharers={self.sharers:b} lw={self.lw_id}>")


class Directory:
    """The distributed full-map directory, indexed by line address.

    Physically the paper distributes one directory module per tile (home
    node by address interleaving); functionally it is a single map, which
    is what we model.  Latency of reaching the home node is part of the
    protocol's round-trip constants.
    """

    __slots__ = ("n_cores", "_entries")

    def __init__(self, n_cores: int):
        self.n_cores = n_cores
        self._entries: dict[int, DirEntry] = {}

    def entry(self, addr: int) -> DirEntry:
        entry = self._entries.get(addr)
        if entry is None:
            entry = DirEntry(addr)
            self._entries[addr] = entry
        return entry

    def peek(self, addr: int) -> Optional[DirEntry]:
        return self._entries.get(addr)

    def entries(self) -> Iterator[DirEntry]:
        return iter(self._entries.values())

    def home_of(self, addr: int) -> int:
        """Home tile of a line (address-interleaved)."""
        return addr % self.n_cores

    # -- bulk maintenance --------------------------------------------------
    def evict_copy(self, addr: int, pid: int) -> None:
        """A clean/dirty copy left core ``pid``'s cache (LW-ID preserved)."""
        entry = self._entries.get(addr)
        if entry is None:
            return
        if entry.mode == EXCL and entry.owner == pid:
            entry.mode = UNCACHED
            entry.owner = None
            entry.sharers = 0
        elif entry.mode == SHARED:
            entry.sharers &= ~(1 << pid)
            if entry.sharers == 0:
                entry.mode = UNCACHED

    def purge_core(self, pid: int, clear_lw: bool = True) -> int:
        """Drop every copy held by ``pid`` (rollback invalidation).

        Also clears LW-ID fields naming the processor, as the rollback
        protocol does (Section 3.3.5).  Returns entries touched.
        """
        bit = 1 << pid
        touched = 0
        for entry in self._entries.values():
            hit = False
            if entry.mode == EXCL and entry.owner == pid:
                entry.mode = UNCACHED
                entry.owner = None
                entry.sharers = 0
                hit = True
            elif entry.sharers & bit:
                entry.sharers &= ~bit
                if entry.sharers == 0 and entry.mode == SHARED:
                    entry.mode = UNCACHED
                hit = True
            if clear_lw and entry.lw_id == pid:
                entry.lw_id = None
                hit = True
            touched += hit
        return touched
