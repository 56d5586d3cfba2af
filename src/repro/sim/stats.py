"""Statistics collection for simulation runs.

Every stall cycle is attributed to one of the four categories of the
Figure 6.5 breakdown (WBDelay, WBImbalanceDelay, SyncDelay, IPCDelay),
and every checkpoint/rollback becomes an event record so the harness can
compute interaction-set sizes (Figures 6.1/6.2), recovery latencies
(Figure 6.6c) and effective checkpoint intervals (Figure 6.7).

Fault campaigns aggregate many seeded runs: :func:`summarize_campaign`
folds a list of :class:`SimStats` into a :class:`CampaignSummary` with
work-lost cycles, rollback-count / IREC-size / recovery-latency
distributions and availability (useful core-cycles over total).

Useful-work accounting: every core-cycle of a run lands in exactly one
of four buckets (:meth:`SimStats.cycle_buckets`):

* ``useful`` — committed execution, application synchronization and
  end-of-run idle time; the work checkpointing exists to preserve,
* ``checkpoint_overhead`` — signature/Dep-set maintenance, checkpoint
  coordination syncs, log writebacks (own and other members'), demand
  misses queued behind checkpoint traffic, and protocol back-off waits,
* ``rollback_waste`` — discarded execution (net of the checkpoint
  overhead inside the discarded span, which stays in its own bucket),
* ``recovery`` — the rollback machinery itself (invalidate + restore).

``useful + checkpoint_overhead + rollback_waste + recovery ==
runtime * n_cores`` holds *exactly* on every run (the machine asserts
it at finalize when ``check_coherence`` is set), and
:meth:`SimStats.effective_availability` = useful / total is the
campaign metric that, unlike :meth:`SimStats.availability`, also
charges the checkpointing work itself against the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.params import MachineConfig, Scheme


@dataclass(slots=True)
class CheckpointEvent:
    """One checkpoint of a set of processors."""

    time: float
    initiator: int
    kind: str                 # "interval" | "global" | "barrier" | "io"
    size: int                 # |ICHK| including the initiator
    genuine_size: int         # |ICHK| had the WSIG been exact
    dirty_lines: int          # lines written back
    duration: float           # sync start -> writebacks complete


@dataclass(slots=True)
class RollbackEvent:
    """One recovery: a set of processors rolled back together."""

    detect_time: float
    initiator: int
    size: int                 # |IREC|
    latency: float            # detection -> execution resumes
    log_entries: int          # entries undone
    max_depth: int            # checkpoint intervals unwound (domino bound)
    wasted_cycles: float      # work discarded across the set


@dataclass(slots=True)
class CoreStats:
    """Per-core cycle accounting."""

    busy: float = 0.0             # executing instructions / memory ops
    sync_wait: float = 0.0        # application locks and barriers
    wb_delay: float = 0.0         # stalled on own checkpoint writebacks
    wb_imbalance: float = 0.0     # waiting for other checkpointers' WBs
    ckpt_sync: float = 0.0        # checkpoint coordination cost
    ipc_delay: float = 0.0        # demand misses queued behind ckpt traffic
    depset_stall: float = 0.0     # out of Dep register sets (Section 4.2)
    ckpt_backoff: float = 0.0     # protocol retry / back-off waits
    stall_overhang: float = 0.0   # stall cycles charged past end-of-run
                                  # or a rollback cut (netted out of the
                                  # overhead bucket, kept in the gross
                                  # per-category counters above)
    recovery: float = 0.0         # rollback machinery (invalidate+restore)
    rollback_waste: float = 0.0   # discarded execution net of ckpt stalls
    instructions: int = 0
    n_checkpoints: int = 0
    end_time: float = 0.0
    last_ckpt_time: float = 0.0
    ckpt_gap_sum: float = 0.0     # for the Fig 6.7 effective interval
    ckpt_gap_count: int = 0

    @property
    def ckpt_overhead_cycles(self) -> float:
        """Net checkpoint-overhead cycles of this core: the gross stall
        categories minus the windows that displaced no execution (the
        overhang past end-of-run / a rollback cut)."""
        return (self.wb_delay + self.wb_imbalance + self.ckpt_sync +
                self.ipc_delay + self.depset_stall + self.ckpt_backoff -
                self.stall_overhang)

    @property
    def mean_ckpt_gap(self) -> float:
        if self.ckpt_gap_count == 0:
            return 0.0
        return self.ckpt_gap_sum / self.ckpt_gap_count


@dataclass
class SimStats:
    """Everything a run produces; built by :class:`repro.sim.Machine`."""

    config: MachineConfig
    scheme: Scheme
    workload: str
    runtime: float = 0.0
    total_instructions: int = 0
    cores: list[CoreStats] = field(default_factory=list)
    checkpoints: list[CheckpointEvent] = field(default_factory=list)
    rollbacks: list[RollbackEvent] = field(default_factory=list)
    # Traffic / storage / structure counters.
    base_messages: int = 0
    dep_messages: int = 0
    protocol_messages: int = 0
    log_bytes: int = 0
    max_interval_log_bytes: int = 0
    wsig_false_positives: int = 0
    wsig_tests: int = 0
    busy_retries: int = 0
    declines: int = 0
    nacks: int = 0
    # Fault accounting: every injected fault is either delivered to the
    # scheme (producing a rollback) or recorded as undelivered (its
    # detection time fell after the application finished).
    injected_faults: int = 0
    undelivered_faults: int = 0
    energy_events: dict[str, int] = field(default_factory=dict)
    energy_joules: float = 0.0
    baseline_energy_joules: float = 0.0
    # Memory-system counters.  ``fastpath_loads``/``fastpath_stores``
    # count private hits (served without the directory) and
    # ``fastpath_epoch_bumps`` the events that can change a line's hit
    # status; the names are kept so cached results and digests match.
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    fastpath_loads: int = 0
    fastpath_stores: int = 0
    fastpath_epoch_bumps: int = 0
    invalidations: int = 0
    mem_accesses: int = 0

    # -- derived quantities --------------------------------------------------
    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def fastpath_hit_rate(self) -> float:
        """Fraction of memory accesses served as private cache hits
        (no directory traffic)."""
        if self.mem_accesses == 0:
            return 0.0
        return (self.fastpath_loads + self.fastpath_stores) / self.mem_accesses

    def overhead_vs(self, baseline: "SimStats") -> float:
        """Checkpointing overhead as a fraction of error-free runtime."""
        if baseline.runtime <= 0:
            return 0.0
        return (self.runtime - baseline.runtime) / baseline.runtime

    def breakdown(self) -> dict[str, float]:
        """Total stall cycles per Figure 6.5 category, summed over cores."""
        out = {"WBDelay": 0.0, "WBImbalanceDelay": 0.0,
               "SyncDelay": 0.0, "IPCDelay": 0.0}
        for core in self.cores:
            out["WBDelay"] += core.wb_delay
            out["WBImbalanceDelay"] += core.wb_imbalance
            out["SyncDelay"] += core.ckpt_sync + core.depset_stall
            out["IPCDelay"] += core.ipc_delay
        return out

    def mean_ichk_fraction(self, kinds: tuple[str, ...] = ("interval", "io")
                           ) -> float:
        """Average |ICHK| / n_cores over checkpoint events (Fig 6.1/6.2)."""
        sizes = [e.size for e in self.checkpoints if e.kind in kinds]
        if not sizes:
            return 0.0
        return sum(sizes) / (len(sizes) * self.n_cores)

    def mean_genuine_ichk_fraction(
            self, kinds: tuple[str, ...] = ("interval", "io")) -> float:
        sizes = [e.genuine_size for e in self.checkpoints
                 if e.kind in kinds]
        if not sizes:
            return 0.0
        return sum(sizes) / (len(sizes) * self.n_cores)

    def ichk_fp_increase_percent(self) -> float:
        """% ICHK growth caused by WSIG false positives (Table 6.1)."""
        genuine = self.mean_genuine_ichk_fraction()
        actual = self.mean_ichk_fraction()
        if genuine <= 0:
            return 0.0
        return 100.0 * (actual - genuine) / genuine

    def dep_message_percent(self) -> float:
        """Extra coherence messages over the base protocol (Table 6.1)."""
        if self.base_messages == 0:
            return 0.0
        return 100.0 * self.dep_messages / self.base_messages

    def mean_recovery_latency(self) -> float:
        if not self.rollbacks:
            if self.undelivered_faults:
                raise RuntimeError(
                    f"{self.workload}/{self.scheme.value}: "
                    f"{self.undelivered_faults} injected fault(s) were "
                    f"never delivered (the application finished before "
                    f"their detection time); refusing to report a "
                    f"0-cycle recovery latency")
            return 0.0
        return sum(r.latency for r in self.rollbacks) / len(self.rollbacks)

    def work_lost_cycles(self) -> float:
        """Cycles of discarded execution across all rollbacks."""
        return sum(r.wasted_cycles for r in self.rollbacks)

    def availability(self) -> float:
        """Fault-centric availability: 1 - (lost cycles / total cycles).

        Lost cycles are the work discarded by rollbacks plus the cycles
        the recovery machinery itself kept cores away from execution.
        Checkpoint overhead is *not* charged here — see
        :meth:`effective_availability` for the metric that does.
        """
        total = self.total_cycles
        if total <= 0:
            return 1.0
        lost = self.work_lost_cycles() + sum(c.recovery for c in self.cores)
        return max(0.0, 1.0 - lost / total)

    # -- useful-work accounting ---------------------------------------------
    @property
    def total_cycles(self) -> float:
        """Machine core-cycles of the run: runtime x processor count."""
        return self.runtime * self.n_cores

    def _quantize(self, value: float) -> float:
        """Snap a bucket total onto ``total_cycles``'s ulp grid.

        On that grid every bucket, every partial sum and the residual
        are exactly representable doubles (magnitude / quantum < 2^53),
        so ``useful + checkpoint_overhead + rollback_waste + recovery
        == total_cycles`` holds *exactly* in plain float arithmetic —
        no correctly-rounded-sum tie can put the partition one ulp off.
        The snap moves a bucket by at most half an ulp of the total
        (~1e-10 cycles at campaign scale): measurement dust.
        """
        quantum = math.ulp(self.total_cycles)
        if quantum <= 0.0 or not math.isfinite(value / quantum):
            return value
        return round(value / quantum) * quantum

    def checkpoint_overhead_cycles(self) -> float:
        """Cycles spent running the checkpointing machinery itself:
        coordination syncs, log writebacks (own and other members'),
        Dep-set/signature stalls, demand misses queued behind checkpoint
        traffic, and protocol back-off waits."""
        return self._quantize(
            math.fsum(c.ckpt_overhead_cycles for c in self.cores))

    def rollback_waste_cycles(self) -> float:
        """Discarded-execution cycles, net of the checkpoint-overhead
        cycles inside the discarded spans (those stay in the overhead
        bucket so no cycle is charged twice).  The gross span total is
        :meth:`work_lost_cycles`."""
        return self._quantize(
            math.fsum(c.rollback_waste for c in self.cores))

    def recovery_cycles(self) -> float:
        """Cycles the rollback machinery kept cores from executing."""
        return self._quantize(
            math.fsum(c.recovery for c in self.cores))

    def useful_cycles(self) -> float:
        """Core-cycles of useful progress: committed execution,
        application synchronization and end-of-run idle — everything the
        checkpointing/rollback machinery did not consume.  The residual
        of the other three buckets; on the shared ulp grid the
        subtraction is exact, so the four buckets partition
        ``total_cycles`` identically, not approximately."""
        return (self.total_cycles - self.checkpoint_overhead_cycles() -
                self.rollback_waste_cycles() - self.recovery_cycles())

    def cycle_buckets(self) -> dict[str, float]:
        """The four-way cycle partition of the run (see module docs).

        ``useful + checkpoint_overhead + rollback_waste + recovery``
        equals ``total_cycles`` exactly; every bucket is non-negative.
        """
        return {
            "useful": self.useful_cycles(),
            "checkpoint_overhead": self.checkpoint_overhead_cycles(),
            "rollback_waste": self.rollback_waste_cycles(),
            "recovery": self.recovery_cycles(),
        }

    def effective_availability(self) -> float:
        """Useful core-cycles over total core-cycles.

        Stricter than :meth:`availability`: the checkpointing work
        Rebound exists to minimize (signature maintenance, barrier and
        writeback stalls, log writes, checkpoint commits, back-offs) is
        charged as overhead rather than counted as progress, so
        ``effective_availability() <= availability()`` on every run.
        """
        total = self.total_cycles
        if total <= 0:
            return 1.0
        return self.useful_cycles() / total

    def verify_cycle_accounting(self) -> None:
        """Raise if the cycle buckets violate the accounting invariants
        (exact partition, non-negative buckets, availability ordering).
        Cheap; the machine runs it at finalize under
        ``check_coherence`` so every golden-checked run is audited.
        """
        buckets = self.cycle_buckets()
        for name, value in buckets.items():
            if not value >= 0.0:
                raise AssertionError(
                    f"{self.workload}/{self.scheme.value}: cycle bucket "
                    f"{name} is negative ({value!r}); some cycles were "
                    f"charged twice across buckets")
        total = math.fsum(buckets.values())
        if total != self.total_cycles:
            raise AssertionError(
                f"{self.workload}/{self.scheme.value}: cycle buckets sum "
                f"to {total!r}, not total_cycles={self.total_cycles!r}")
        effective = self.effective_availability()
        raw = self.availability()
        # The two metrics are derived through different float paths, so
        # an overhead-free run can land one ulp apart; anything beyond
        # rounding noise is a real double-charge.
        ordered = (0.0 <= effective <= 1.0 and raw <= 1.0 and
                   (effective <= raw or
                    math.isclose(effective, raw, rel_tol=1e-12)))
        if not ordered:
            raise AssertionError(
                f"{self.workload}/{self.scheme.value}: availability "
                f"ordering violated (effective={effective!r}, "
                f"raw={raw!r})")

    def mean_effective_ckpt_interval(self) -> float:
        """Average time between a core's consecutive checkpoints (Fig 6.7)."""
        gaps = [c.mean_ckpt_gap for c in self.cores if c.ckpt_gap_count > 0]
        if not gaps:
            return 0.0
        return sum(gaps) / len(gaps)

    def max_rollback_depth(self) -> int:
        return max((r.max_depth for r in self.rollbacks), default=0)

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"workload={self.workload} scheme={self.scheme.value} "
            f"cores={self.n_cores}",
            f"runtime={self.runtime:,.0f} cycles  "
            f"instructions={self.total_instructions:,}",
            f"checkpoints={len(self.checkpoints)} "
            f"mean ICHK={100 * self.mean_ichk_fraction():.1f}% "
            f"rollbacks={len(self.rollbacks)}",
            f"messages base={self.base_messages} dep={self.dep_messages} "
            f"(+{self.dep_message_percent():.1f}%)",
            f"log={self.log_bytes / 1e6:.2f} MB total",
        ]
        if self.injected_faults:
            lines.append(
                f"faults={self.injected_faults} "
                f"(undelivered={self.undelivered_faults}) "
                f"availability={100 * self.availability():.2f}% "
                f"effective={100 * self.effective_availability():.2f}%")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fault-campaign aggregation
# ---------------------------------------------------------------------------

def _percentile_sorted(ordered: list[float], q: float) -> float:
    """:func:`percentile` on an already *sorted* list (no copy, no
    re-sort) — the indexing half shared by the one-shot function and the
    sort-once cache in :class:`CampaignSummary`."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100]).

    An empty input has no percentiles: the result is ``math.nan``, so a
    fault-free campaign cell can never masquerade as a 0-cycle recovery
    (callers display it explicitly, e.g. as ``-``).  A ``q`` outside
    [0, 100] is a caller bug and raises.
    """
    return _percentile_sorted(sorted(values), q)


@dataclass
class CampaignSummary:
    """Distributions over the seeded runs of one fault campaign."""

    n_runs: int = 0
    injected_faults: int = 0
    delivered_faults: int = 0
    undelivered_faults: int = 0
    rollback_counts: list[int] = field(default_factory=list)   # per run
    irec_sizes: list[int] = field(default_factory=list)        # per rollback
    recovery_latencies: list[float] = field(default_factory=list)
    work_lost: list[float] = field(default_factory=list)       # per run
    availabilities: list[float] = field(default_factory=list)  # per run
    effective_availabilities: list[float] = field(default_factory=list)
    checkpoint_overheads: list[float] = field(default_factory=list)

    def add(self, stats: "SimStats") -> None:
        """Fold one run into the distributions (incremental form of
        :func:`summarize_campaign` — the campaign service folds results
        in as they stream off the engine, so a cancelled or still-
        running job summarizes exactly the runs that have landed)."""
        self.n_runs += 1
        self.injected_faults += stats.injected_faults
        self.undelivered_faults += stats.undelivered_faults
        self.delivered_faults += (stats.injected_faults -
                                  stats.undelivered_faults)
        self.rollback_counts.append(len(stats.rollbacks))
        self.irec_sizes.extend(r.size for r in stats.rollbacks)
        self.recovery_latencies.extend(r.latency for r in stats.rollbacks)
        self.work_lost.append(stats.work_lost_cycles())
        self.availabilities.append(stats.availability())
        self.effective_availabilities.append(
            stats.effective_availability())
        self.checkpoint_overheads.append(
            stats.checkpoint_overhead_cycles())

    # -- derived -------------------------------------------------------------
    @property
    def n_rollbacks(self) -> int:
        return sum(self.rollback_counts)

    @property
    def mean_rollbacks_per_run(self) -> float:
        return self.n_rollbacks / self.n_runs if self.n_runs else 0.0

    @property
    def mean_irec_size(self) -> float:
        if not self.irec_sizes:
            return 0.0
        return sum(self.irec_sizes) / len(self.irec_sizes)

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    def recovery_latency_percentile(self, q: float) -> float:
        """``math.nan`` when no recovery happened in the campaign.

        The campaign tables query several percentiles (p50/p95/p99 ...)
        of the same distribution; the latencies are sorted *once* and
        each query only indexes — the cache invalidates itself if more
        runs are folded in after the first query (the list only ever
        grows, so its length is the version).
        """
        cached = self.__dict__.get("_recovery_sorted")
        if cached is None or cached[0] != len(self.recovery_latencies):
            cached = (len(self.recovery_latencies),
                      sorted(self.recovery_latencies))
            self.__dict__["_recovery_sorted"] = cached
        return _percentile_sorted(cached[1], q)

    @property
    def mean_work_lost(self) -> float:
        return sum(self.work_lost) / self.n_runs if self.n_runs else 0.0

    @property
    def mean_availability(self) -> float:
        if not self.availabilities:
            return 1.0
        return sum(self.availabilities) / len(self.availabilities)

    @property
    def mean_effective_availability(self) -> float:
        """Useful-work availability (checkpoint overhead charged too);
        <= :attr:`mean_availability` by construction."""
        if not self.effective_availabilities:
            return 1.0
        return (sum(self.effective_availabilities) /
                len(self.effective_availabilities))

    @property
    def mean_checkpoint_overhead(self) -> float:
        """Mean checkpoint-overhead core-cycles per run."""
        if not self.checkpoint_overheads:
            return 0.0
        return sum(self.checkpoint_overheads) / len(self.checkpoint_overheads)


def summarize_campaign(runs: Iterable[SimStats]) -> CampaignSummary:
    """Fold per-seed :class:`SimStats` into campaign distributions."""
    summary = CampaignSummary()
    for stats in runs:
        summary.add(stats)
    return summary
