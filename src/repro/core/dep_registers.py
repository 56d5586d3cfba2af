"""Dep registers: MyProducers, MyConsumers and the WSIG, with multiple sets.

Each processor owns up to ``n_dep_sets`` (default 4, Figure 4.3a) sets of
Dep registers so it can operate with multiple outstanding checkpoints
(Section 4.2): one active set records the current interval; older sets
stay live until the checkpoint that follows their interval has been
complete for at least the fault-detection latency L, at which point they
are recycled.  A processor that runs out of sets stalls.

MyProducers / MyConsumers are processor bitmasks (bit j = processor j).
Alongside the architectural masks we keep *genuine* masks that exclude
edges created by WSIG false positives; they drive the Table 6.1
statistic and are invisible to the protocol.

Register-state snapshots (trace position, held locks, ...) live with the
core (:class:`repro.sim.cores.CoreSnapshot`); this module only holds the
dependence-tracking hardware.

:class:`DepRegisterFile` with :class:`WriteSignature` WSIGs is the Python
reference.  A compiled machine keeps the registers in its core, which
records dependences and WSIG stamps itself; there the file is a
:class:`CoreDepRegisterFile` whose sets are views of the core's rows and
whose set lifecycle is the same Python code.
"""

from __future__ import annotations

import copy
import ctypes
from typing import Optional

from repro.backref import backref
from repro.coherence.core import ffi, row_fields
from repro.core.signature import WriteSignature


def mask_to_pids(mask: int) -> list[int]:
    """Expand a processor bitmask into a list of PIDs, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class DepRegisterSet(ctypes.Structure):
    """One interval's dependence state (a row of Figure 4.1c/d).

    The fields are those of ``mem_dep_t`` (``memsys.c``).  In a compiled
    machine running Rebound's hooks the set is a view of its row in the core
    (:class:`CoreDepRegisterFile`) and ``wsig`` a
    :class:`CoreWriteSignature`, whose counters are the row's
    ``wsig_*`` fields; otherwise the set owns its buffer and ``wsig``
    is a :class:`WriteSignature`.

    ``producers`` bit j: j produced data I consumed; ``consumers`` bit
    j: j consumed data I produced; the ``*_genuine`` masks exclude
    edges created by Bloom false positives (statistics only)."""

    _fields_ = row_fields("mem_dep_t", {"ckpt_complete_time", "complete"})

    def __init__(self, interval_id: int = 0, start_time: float = 0.0,
                 wsig=None):
        super().__init__(interval_id=interval_id, start_time=start_time)
        self.wsig = wsig

    @property
    def ckpt_complete_time(self) -> Optional[float]:
        """When the checkpoint closing this interval fully completed
        (including delayed writebacks); None while open or draining."""
        return self._ckpt_complete_time if self._complete else None

    @ckpt_complete_time.setter
    def ckpt_complete_time(self, value: Optional[float]) -> None:
        self._complete = value is not None
        self._ckpt_complete_time = 0.0 if value is None else value

    def __deepcopy__(self, memo) -> "DepRegisterSet":
        clone = type(self)()
        ctypes.pointer(clone)[0] = self
        clone.wsig = copy.deepcopy(self.wsig, memo)
        return clone


class DepRegisterFile:
    """Per-processor Dep register sets."""

    def __init__(self, pid: int, n_sets: int, wsig_bits: int,
                 wsig_hashes: int):
        self.pid = pid
        self.n_sets = n_sets
        self.wsig_bits = wsig_bits
        self.wsig_hashes = wsig_hashes
        self._next_interval = 1
        self.sets: list[DepRegisterSet] = []
        self.stall_events = 0
        self.retired_wsig_tests = 0
        self.retired_wsig_fps = 0
        self.sets = [self._new_set(0.0)]

    # -- set lifecycle ------------------------------------------------------
    def _new_set(self, now: float) -> DepRegisterSet:
        dep = DepRegisterSet(
            self._next_interval, now,
            WriteSignature(self.wsig_bits, self.wsig_hashes))
        self._next_interval += 1
        return dep

    @property
    def active(self) -> DepRegisterSet:
        return self.sets[-1]

    # The live sets change only by assignment to ``sets`` (a compiled
    # core's file publishes each new list to the core).
    def recycle(self, now: float, detection_latency: float) -> None:
        """Free sets whose closing checkpoint completed >= L cycles ago."""
        sets = self.sets
        while len(sets) > 1:
            oldest = sets[0]
            done = oldest.ckpt_complete_time
            if done is None or now - done < detection_latency:
                break
            self.retired_wsig_tests += oldest.wsig.tests
            self.retired_wsig_fps += oldest.wsig.false_positives
            sets = sets[1:]
            self.sets = sets

    def can_open_interval(self, now: float, detection_latency: float) -> bool:
        """True when a fresh Dep set can be allocated right now."""
        self.recycle(now, detection_latency)
        return len(self.sets) < self.n_sets

    def stall_until(self, detection_latency: float) -> Optional[float]:
        """Earliest time a set frees up, or None while the oldest
        checkpoint's writebacks are still in flight (Section 4.2)."""
        oldest = self.sets[0]
        if oldest.ckpt_complete_time is None:
            return None
        return oldest.ckpt_complete_time + detection_latency

    def open_interval(self, now: float) -> DepRegisterSet:
        """Rotate to a fresh Dep set (the instant a checkpoint begins)."""
        sets = self.sets
        assert len(sets) < self.n_sets, "out of Dep register sets"
        sets[-1].ckpt_started = True
        dep = self._new_set(now)
        self.sets = sets + [dep]
        return dep

    def force_open(self, now: float) -> DepRegisterSet:
        """Open a new interval even when all sets are in use.

        Real hardware stalls; at a barrier checkpoint stalling is not an
        option, so the two oldest sets are merged instead.  The merge is
        conservative (union of producers/consumers/WSIG): it can only
        enlarge future interaction sets, never miss a dependence.
        """
        sets = self.sets
        if len(sets) >= self.n_sets:
            oldest, survivor = sets[0], sets[1]
            survivor.producers |= oldest.producers
            survivor.consumers |= oldest.consumers
            survivor.producers_genuine |= oldest.producers_genuine
            survivor.consumers_genuine |= oldest.consumers_genuine
            survivor.wsig.merge(oldest.wsig)
            self.retired_wsig_tests += oldest.wsig.tests
            self.retired_wsig_fps += oldest.wsig.false_positives
            self.stall_events += 1
            self.sets = sets[1:]
        return self.open_interval(now)

    def set_for_interval(self, interval_id: int) -> Optional[DepRegisterSet]:
        for dep in self.sets:
            if dep.interval_id == interval_id:
                return dep
        return None

    # -- dependence recording --------------------------------------------------
    def record_producer(self, producer: int) -> None:
        self.active.producers |= 1 << producer

    def record_producer_genuine(self, producer: int) -> None:
        self.active.producers_genuine |= 1 << producer

    def on_write(self, addr: int) -> None:
        self.active.wsig.add(addr)

    def query_writer(self, addr: int
                     ) -> tuple[bool, bool, Optional[DepRegisterSet]]:
        """'Are you the last writer?' across all live WSIGs (Section 4.2).

        Tests newest-first and returns ``(claims, genuine, matching_set)``;
        the caller sets MyConsumers in the matching — conservatively the
        later — interval.
        """
        for dep in reversed(self.sets):
            claims, genuine = dep.wsig.test(addr)
            if claims:
                return True, genuine, dep
        return False, False, None

    def record_consumer(self, dep: DepRegisterSet, consumer: int,
                        genuine: bool) -> None:
        dep.consumers |= 1 << consumer
        if genuine:
            dep.consumers_genuine |= 1 << consumer

    # -- rollback support ---------------------------------------------------------
    def consumers_after(self, interval_id: int) -> tuple[int, int]:
        """OR of MyConsumers over every interval newer than ``interval_id``.

        Returns ``(mask, genuine_mask)`` — the processors that must roll
        back alongside this one (Section 4.2, second event).
        """
        mask = genuine = 0
        for dep in self.sets:
            if dep.interval_id > interval_id:
                mask |= dep.consumers
                genuine |= dep.consumers_genuine
        return mask, genuine

    def drop_rolled_back(self, interval_id: int, now: float) -> None:
        """Discard rolled-back intervals' state and open a fresh one.

        Rolling back clears MyProducers, MyConsumers and the WSIG of the
        undone intervals (Section 3.3.5).  Interval numbering rewinds so
        re-executed intervals keep the invariant ``checkpoint i closes
        interval i`` that the scheme relies on.
        """
        self.sets = [d for d in self.sets if d.interval_id <= interval_id]
        self._next_interval = interval_id + 1
        self.sets = self.sets + [self._new_set(now)]


class CoreWriteSignature:
    """The WSIG of one Dep-register set in the compiled core: the Bloom
    words and the exact shadow live there, the counters in the set's
    row.  It offers what the set lifecycle and the statistics ask of a
    :class:`WriteSignature`; the core itself adds and tests lines."""

    __slots__ = ("_file_ref", "_slot", "_row_ref")
    #: The file and the set row (weak: the row holds the signature).
    _file = backref()
    _row = backref()

    def __init__(self, file: "CoreDepRegisterFile", slot: int,
                 row: DepRegisterSet):
        self._file = file
        self._slot = slot
        self._row = row

    @property
    def tests(self) -> int:
        return self._row.wsig_tests

    @property
    def false_positives(self) -> int:
        return self._row.wsig_false_positives

    @property
    def words(self):
        """The Bloom words, writable in place (a ``ctypes`` array)."""
        return self._file._engine.wsig_words(self._file.pid, self._slot)

    @property
    def exact(self) -> set[int]:
        return set(self._file._engine.wsig_exact(self._file.pid, self._slot))

    def merge(self, other: "CoreWriteSignature") -> None:
        self._file._engine.wsig_merge(self._file.pid, self._slot,
                                      other._slot)


class CoreDepRegisterFile(DepRegisterFile):
    """The Dep registers of core ``pid`` in the compiled core.

    ``engine`` (a :class:`~repro.coherence.core.CompiledEngine` running
    Rebound's hooks) holds ``n_sets`` set rows per core and, per core,
    the order of the live sets and the next interval id; :attr:`sets`
    derives from that order (each set a view of its row), an assignment
    to it publishes the new order, and ``_next_interval`` is the core's.
    The core reads the active set and the live sets newest first on
    each dependence and WSIG stamp, and a compiled checkpoint rotates
    the sets itself (``mem_checkpoint``).  The set lifecycle is
    :class:`DepRegisterFile`'s own code."""

    #: The engine (weak: its scheme owns the file).
    _engine = backref()

    def __init__(self, engine, pid: int, n_sets: int, wsig_bits: int,
                 wsig_hashes: int):
        self._engine = engine
        self.pid = pid
        self._bind()
        super().__init__(pid, n_sets, wsig_bits, wsig_hashes)

    def _bind(self) -> None:
        """The set rows and the core's order of them (``_c`` keeps the
        core's memory, not the engine, alive)."""
        self._c = c = self._engine._c
        self._order = c.dep_order + self.pid * c.dep_slots
        self._rows = [self._view(slot) for slot in range(c.dep_slots)]

    @property
    def sets(self) -> list[DepRegisterSet]:
        """The live sets, oldest first."""
        rows = self._rows
        return [rows[slot] for slot in
                ffi.unpack(self._order, self._c.dep_n[self.pid])]

    @sets.setter
    def sets(self, sets: list[DepRegisterSet]) -> None:
        self._engine.set_dep_order(self.pid, [dep._slot for dep in sets])

    @property
    def active(self) -> DepRegisterSet:
        return self._rows[self._order[self._c.dep_n[self.pid] - 1]]

    @property
    def _next_interval(self) -> int:
        return self._c.dep_next[self.pid]

    @_next_interval.setter
    def _next_interval(self, interval_id: int) -> None:
        self._c.dep_next[self.pid] = interval_id

    def _view(self, slot: int) -> DepRegisterSet:
        row = DepRegisterSet.from_address(self._engine.dep_row(self.pid,
                                                               slot))
        row._slot = slot
        row.wsig = CoreWriteSignature(self, slot, row)
        return row

    def _new_set(self, now: float) -> DepRegisterSet:
        used = {dep._slot for dep in self.sets}
        slot = min(set(range(self.n_sets)) - used)
        self._engine.dep_reset(self.pid, slot, self._next_interval, now)
        self._next_interval += 1
        return self._rows[slot]

    def __deepcopy__(self, memo) -> "CoreDepRegisterFile":
        """The same file over the forked core (which cloned the rows,
        their order and the next interval id)."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in vars(self).items():
            if name not in ("_c", "_order", "_rows"):
                setattr(clone, name, copy.deepcopy(value, memo))
        clone._bind()
        return clone
