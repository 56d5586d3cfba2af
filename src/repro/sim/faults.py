"""Fault injection under the paper's fault model (Section 3.2).

Transient or permanent faults can strike any core at any time, including
during a checkpoint.  Detection is out of scope for the paper except for
its latency: a fault occurring at time ``t`` is revealed to the recovery
machinery at ``t + L``, and a checkpoint that completed more than L
cycles ago is safe.  Off-chip memory and the log never fault.

Two ways to describe the faults of a run:

* a plain list of ``(time, pid)`` pairs (hand-placed faults, as the
  single-fault figures use), or
* a :class:`FaultPlan` — a seed-deterministic draw from an exponential
  (MTTF) model.  Plans are frozen, hashable and have a stable repr, so
  they can ride inside a :class:`~repro.harness.engine.RunKey` and make
  fault runs cacheable and parallelizable like any other simulation.

Delivery: the :class:`~repro.sim.machine.Machine` schedules every fault
as its own heap event at its detection time, so delivery is exact
regardless of record fusing.  A fault whose detection time falls after
the application finished can never be delivered; it is recorded as
*undelivered* instead of silently vanishing (the harness refuses to
report a 0-cycle recovery for such runs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class FaultPlan:
    """Seed-deterministic fault campaign: a tuple of (time, pid) faults.

    Frozen and hashable with a stable ``repr``, so a plan can be part of
    a cache key.  ``seed`` and ``mttf`` are provenance metadata excluded
    from equality, hashing *and* repr: the ``faults`` tuple alone
    defines the simulation, so two plans with identical faults share one
    engine cache entry no matter how they were constructed.
    """

    faults: tuple[tuple[float, int], ...]
    seed: Optional[int] = field(default=None, compare=False, repr=False)
    mttf: Optional[float] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(
            (float(time), int(pid)) for time, pid in self.faults))

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @staticmethod
    def single(time: float, pid: int = 0) -> "FaultPlan":
        """The classic one-scripted-fault run as a plan."""
        return FaultPlan(((float(time), pid),))

    @staticmethod
    def from_mttf(seed: int, mttf: float, horizon: float, n_cores: int,
                  max_faults: int = 256) -> "FaultPlan":
        """Draw a fault campaign from an exponential failure model.

        ``mttf`` is the *machine-wide* mean time to failure in cycles
        (equivalently: each of the ``n_cores`` cores fails independently
        with per-core MTTF ``n_cores * mttf``).  Inter-arrival times are
        exponential; each fault strikes a uniformly random core, so
        mid-checkpoint and back-to-back faults on one core all occur
        with their natural probability.  Same seed => identical plan.

        ``max_faults`` is a sanity bound, not a silent truncation: a
        draw that hits it raises, because labeling results with an MTTF
        the injected process no longer matches would be a lie.
        """
        if mttf <= 0:
            raise ValueError("mttf must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = random.Random(seed)
        faults = []
        t = 0.0
        while True:
            t += rng.expovariate(1.0 / mttf)
            if t >= horizon:
                break
            if len(faults) >= max_faults:
                raise ValueError(
                    f"fault plan exceeds max_faults={max_faults} "
                    f"(~{horizon / mttf:.0f} faults expected for "
                    f"mttf={mttf:g}, horizon={horizon:g}); raise "
                    f"max_faults or use a longer MTTF")
            faults.append((round(t, 1), rng.randrange(n_cores)))
        return FaultPlan(tuple(faults), seed=seed, mttf=float(mttf))


@dataclass
class FaultEvent:
    """One injected fault and its detection time."""

    time: float
    pid: int
    detect_time: float = field(init=False)
    detected: bool = False
    undelivered: bool = False

    def __post_init__(self):
        self.detect_time = self.time  # patched by the injector


class FaultInjector:
    """Hands faults to the scheme once their detection latency elapses.

    Events resolve strictly in detection order through
    :meth:`mark_delivered` / :meth:`mark_undelivered`, called by the
    machine's heap-event delivery.  The cursor makes every operation
    O(1) per fault — campaign-scale fault lists stay linear.
    """

    def __init__(self, faults: list[tuple[float, int]],
                 detection_latency: float):
        self.detection_latency = detection_latency
        self.events: list[FaultEvent] = []
        for time, pid in sorted(faults):
            event = FaultEvent(time, pid)
            event.detect_time = time + detection_latency
            self.events.append(event)
        self._next = 0                     # first unresolved event
        self.delivered: list[FaultEvent] = []
        self.undelivered: list[FaultEvent] = []

    def _resolve(self, event: FaultEvent) -> None:
        if self._next >= len(self.events) or \
                self.events[self._next] is not event:
            raise ValueError(
                f"fault {event} resolved out of detection order")
        self._next += 1

    def mark_delivered(self, event: FaultEvent) -> None:
        """The machine handed ``event`` to the scheme."""
        self._resolve(event)
        event.detected = True
        self.delivered.append(event)

    def mark_undelivered(self, event: FaultEvent) -> None:
        """``event``'s detection time fell after the application
        finished: there is no execution left to roll back."""
        self._resolve(event)
        event.undelivered = True
        self.undelivered.append(event)

    @property
    def outstanding(self) -> int:
        return len(self.events) - self._next
