"""ReVive-style in-memory undo log (Section 3.3.3).

Every writeback of a dirty line makes the memory controller read the old
value of the line from memory and append it, tagged with the writer's
PID, to a software log.  The log is multi-banked by address for
parallelism.

Entries are also tagged with the *checkpoint interval* that produced the
data.  With delayed writebacks (Section 4.1), interval ``i``'s background
drain interleaves in wall-clock time with interval ``i+1``'s evictions;
tagging lets rollback undo exactly the entries of the discarded
intervals, which a purely positional stub could not distinguish.  This
realizes the paper's per-checkpoint stubs in the presence of overlapping
writeback windows.

Rolling processor ``p`` back to its checkpoint ``k`` applies, newest
first, the old values of every entry of ``p`` with ``interval > k`` —
restoring precisely the memory image checkpoint ``k`` certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.params import LOG_ENTRY_BYTES


class LogEntry:
    """One undo record: writer, line, old value and producing interval.

    A plain ``__slots__`` class: one is built per logged writeback, and
    a frozen dataclass pays an ``object.__setattr__`` per field.
    """

    __slots__ = ("seq", "time", "pid", "addr", "old_value", "interval")

    def __init__(self, seq: int, time: float, pid: int, addr: int,
                 old_value: int, interval: int):
        self.seq = seq
        self.time = time
        self.pid = pid
        self.addr = addr
        self.old_value = old_value
        self.interval = interval

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogEntry(seq={self.seq}, time={self.time}, "
                f"pid={self.pid}, addr={self.addr:#x}, "
                f"old_value={self.old_value:#x}, interval={self.interval})")


@dataclass(frozen=True)
class Marker:
    """Checkpoint delimiter for one processor (diagnostics/auditing)."""

    seq: int
    time: float
    pid: int
    ckpt_id: int
    kind: str  # "begin" | "end"


class ReviveLog:
    """Multi-banked undo log with per-processor checkpoint markers."""

    def __init__(self, n_banks: int = 2, bin_cycles: int = 1_000_000):
        self.n_banks = n_banks
        self.banks: list[list[LogEntry]] = [[] for _ in range(n_banks)]
        self._seq = 0
        self._end_markers: dict[tuple[int, int], Marker] = {}
        self._begin_markers: dict[tuple[int, int], Marker] = {}
        # Statistics: bytes appended per time bin (the Table 6.1 "max
        # log space per interval" row).
        self.total_entries = 0
        self.bytes_by_bin: dict[int, int] = {}
        self.bin_cycles = max(1, bin_cycles)

    # -- appends ------------------------------------------------------------
    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def append(self, time: float, pid: int, addr: int, old_value: int,
               interval: int) -> LogEntry:
        self._seq += 1
        entry = LogEntry(self._seq, time, pid, addr, old_value, interval)
        self.banks[addr % self.n_banks].append(entry)
        self.total_entries += 1
        tbin = int(time) // self.bin_cycles
        self.bytes_by_bin[tbin] = self.bytes_by_bin.get(tbin, 0) + LOG_ENTRY_BYTES
        return entry

    def mark_begin(self, time: float, pid: int, ckpt_id: int) -> Marker:
        marker = Marker(self.next_seq(), time, pid, ckpt_id, "begin")
        self._begin_markers[(pid, ckpt_id)] = marker
        return marker

    def mark_end(self, time: float, pid: int, ckpt_id: int) -> Marker:
        """Checkpoint ``ckpt_id`` of ``pid`` completed all its writebacks."""
        marker = Marker(self.next_seq(), time, pid, ckpt_id, "end")
        self._end_markers[(pid, ckpt_id)] = marker
        return marker

    def end_marker(self, pid: int, ckpt_id: int) -> Optional[Marker]:
        return self._end_markers.get((pid, ckpt_id))

    # -- rollback ------------------------------------------------------------
    def entries_after(self, targets: dict[int, int]) -> list[LogEntry]:
        """Undo list for rolling each ``pid`` back to checkpoint ``k``.

        Selects every entry of the targeted pids whose producing interval
        is newer than the target checkpoint; newest-first order is the
        order old values must be applied to memory (Section 3.3.3).
        """
        selected: list[LogEntry] = []
        for bank in self.banks:
            for entry in bank:
                target = targets.get(entry.pid)
                if target is not None and entry.interval > target:
                    selected.append(entry)
        selected.sort(key=lambda e: e.seq, reverse=True)
        return selected

    def discard_after(self, targets: dict[int, int]) -> int:
        """Drop the undone entries; re-executed work logs afresh."""
        dropped = 0
        for i, bank in enumerate(self.banks):
            kept = []
            for entry in bank:
                target = targets.get(entry.pid)
                if target is not None and entry.interval > target:
                    dropped += 1
                else:
                    kept.append(entry)
            self.banks[i] = kept
        return dropped

    # -- statistics --------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.total_entries * LOG_ENTRY_BYTES

    def live_entries(self) -> int:
        return sum(len(b) for b in self.banks)

    def max_interval_bytes(self) -> int:
        """Largest log volume appended in any one time bin (Table 6.1)."""
        return max(self.bytes_by_bin.values(), default=0)

    def entries_of(self, pids: Iterable[int]) -> int:
        wanted = set(pids)
        return sum(1 for bank in self.banks for e in bank if e.pid in wanted)
