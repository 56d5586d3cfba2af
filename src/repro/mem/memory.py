"""Main memory and its logging memory controller.

Off-chip memory is assumed safe (non-volatile / raided, Section 3.2); it
never suffers faults.  The controller implements ReVive-style logging:
before any dirty-line writeback overwrites memory, the old value is
appended to the software log — except when the same processor already
logged that line in the same checkpoint interval (the ReVive
first-writeback optimization, Section 3.3.3).
"""

from __future__ import annotations

from typing import Iterable

from repro.mem.log import ReviveLog


class MainMemory:
    """Value store plus the logging behaviour of the memory controller.

    This is the oracle's controller.  The compiled memory system keeps
    the value image, the first-writeback filter and the log itself
    (:class:`repro.coherence.core.CoreMemory` views them)."""

    def __init__(self, log: ReviveLog):
        self.log = log
        self._values: dict[int, int] = {}
        # (pid, interval) -> lines already logged in that interval.
        self._logged: dict[tuple[int, int], set[int]] = {}
        self.reads = 0
        self.writes = 0
        self.logged_writebacks = 0
        self.suppressed_logs = 0

    # -- plain accesses -------------------------------------------------------
    def read_line(self, addr: int) -> int:
        self.reads += 1
        return self._values.get(addr, 0)

    def peek(self, addr: int) -> int:
        """Read without counting (tests, snapshots)."""
        return self._values.get(addr, 0)

    def snapshot(self, addrs: Iterable[int] | None = None) -> dict[int, int]:
        """Copy of the memory image (tests and recovery verification)."""
        if addrs is None:
            return dict(self._values)
        return {a: self._values.get(a, 0) for a in addrs}

    # -- logged writebacks ------------------------------------------------------
    def writeback(self, time: float, pid: int, addr: int, value: int,
                  interval: int) -> bool:
        """Write a dirty line of ``interval`` back; True if a log entry
        was made (False when the first-writeback filter suppressed it)."""
        old = self._values.get(addr, 0)
        self._values[addr] = value
        return self.log_writeback(time, pid, addr, old, interval)

    def log_writeback(self, time: float, pid: int, addr: int, old: int,
                      interval: int) -> bool:
        """The controller's side of a writeback that replaced ``old``:
        log it unless ``pid`` already logged ``addr`` in ``interval``."""
        self.writes += 1
        key = (pid, interval)
        seen = self._logged.get(key)
        if seen is None:
            seen = self._logged[key] = set()
        if addr in seen:
            self.suppressed_logs += 1
            return False
        self.log.append(time, pid, addr, old, interval)
        seen.add(addr)
        self.logged_writebacks += 1
        return True

    def end_interval(self, pid: int, interval: int) -> None:
        """Drop the first-writeback filter of a closed interval."""
        self._logged.pop((pid, interval), None)

    # -- rollback ---------------------------------------------------------------
    def restore(self, targets: dict[int, int]) -> list:
        """Undo the log for ``targets`` (pid -> checkpoint id).

        Applies old values newest-first, discards the undone entries and
        resets the first-writeback filters of the undone intervals.
        Returns the list of undone entries (newest first).
        """
        entries = self.log.entries_after(targets)
        for entry in entries:
            self._values[entry.addr] = entry.old_value
            self.writes += 1
        self.log.discard_after(targets)
        for (pid, interval) in list(self._logged):
            target = targets.get(pid)
            if target is not None and interval > target:
                del self._logged[(pid, interval)]
        return entries
