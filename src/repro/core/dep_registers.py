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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.signature import WriteSignature


def mask_to_pids(mask: int) -> list[int]:
    """Expand a processor bitmask into a list of PIDs."""
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass
class DepRegisterSet:
    """One interval's dependence state (a row of Figure 4.1c/d)."""

    interval_id: int
    start_time: float
    wsig: WriteSignature
    producers: int = 0            # bit j: j produced data I consumed
    consumers: int = 0            # bit j: j consumed data I produced
    producers_genuine: int = 0    # excludes Bloom-FP edges (stats only)
    consumers_genuine: int = 0
    # Set when the checkpoint closing this interval fully completed
    # (including delayed writebacks); None while open or draining.
    ckpt_complete_time: Optional[float] = None
    ckpt_started: bool = False


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
        self.sets.append(self._new_set(0.0))

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

    def recycle(self, now: float, detection_latency: float) -> None:
        """Free sets whose closing checkpoint completed >= L cycles ago."""
        while len(self.sets) > 1:
            oldest = self.sets[0]
            done = oldest.ckpt_complete_time
            if done is None or now - done < detection_latency:
                break
            self.retired_wsig_tests += oldest.wsig.tests
            self.retired_wsig_fps += oldest.wsig.false_positives
            self.sets.pop(0)

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
        assert len(self.sets) < self.n_sets, "out of Dep register sets"
        self.active.ckpt_started = True
        dep = self._new_set(now)
        self.sets.append(dep)
        return dep

    def force_open(self, now: float) -> DepRegisterSet:
        """Open a new interval even when all sets are in use.

        Real hardware stalls; at a barrier checkpoint stalling is not an
        option, so the two oldest sets are merged instead.  The merge is
        conservative (union of producers/consumers/WSIG): it can only
        enlarge future interaction sets, never miss a dependence.
        """
        if len(self.sets) >= self.n_sets:
            oldest = self.sets.pop(0)
            survivor = self.sets[0]
            survivor.producers |= oldest.producers
            survivor.consumers |= oldest.consumers
            survivor.producers_genuine |= oldest.producers_genuine
            survivor.consumers_genuine |= oldest.consumers_genuine
            survivor.wsig.merge(oldest.wsig)
            self.retired_wsig_tests += oldest.wsig.tests
            self.retired_wsig_fps += oldest.wsig.false_positives
            self.stall_events += 1
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
        self.sets.append(self._new_set(now))
