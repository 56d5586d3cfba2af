"""Experiment drivers: one per figure/table of the evaluation chapter.

Each driver runs the simulations it needs (through the caching
:class:`~repro.harness.runner.Runner`), returns a structured result and
can render itself as the rows/series the paper's figure plots, plus a
paper-vs-measured line (the result's ``notes``).

Every driver also has a *planner* (``ALL_PLANS``) that enumerates the
exact :class:`~repro.harness.engine.RunKey` set the driver will request,
without running anything.  Drivers prefetch their own plan on entry (so
a single figure parallelizes by itself), and ``python -m repro.harness``
unions the plans of every requested experiment up front, deduplicating
shared runs across figures before handing them to the engine's process
pool in one batch.

Paper reference points (what the *shape* checks compare against):

* Fig 6.1 — mean ICHK ≈ 40% of 24 processors for PARSEC+Apache;
  Blackscholes/Apache ≈ 20%.
* Fig 6.2 — mean ICHK ≈ 60% for SPLASH-2; Ocean/Raytrace ≈ 100%;
  32 -> 64 processors grows ICHK only slightly.
* Fig 6.3 — average error-free overhead at 64p: Global ≈ 15%,
  Global_DWB ≈ 8%, Rebound_NoDWB ≈ 7%, Rebound ≈ 2%; PARSEC/Apache at
  24p: Global ≈ 5%, Rebound ≈ 0.5%.
* Fig 6.4 — Barrier opt and delayed WBs have similar individual impact;
  combining them is not additive.
* Fig 6.5 — Global/Rebound_NoDWB dominated by WBDelay+WBImbalance;
  Rebound dominated by IPCDelay; SyncDelay minor.
* Fig 6.6 — Global's overhead/energy/recovery grow steeply with cores;
  Rebound's stay nearly flat; Rebound recovers slower than
  Rebound_NoDWB (one extra interval) but far faster than Global.
* Fig 6.7 — with one I/O-checkpointing processor every half interval:
  Global's effective interval collapses to 1/2; Rebound stays > 4/5.
* Fig 6.8 — Rebound_NoDWB/Rebound consume ~2%/~4% more power than
  Global (1.3% of it structures) but win ~27% ED^2.
* Table 6.1 — ICHK inflation from WSIG false positives ≈ 2% average;
  extra coherence messages ≈ 4% average; log ≈ MBs per interval.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import mean
from typing import NamedTuple, Optional

from repro.core.factory import resolve_scheme
from repro.harness.engine import RunKey
from repro.harness.report import format_bars, format_table
from repro.harness.runner import Runner
from repro.harness.scenario import SweepSpec
from repro.params import LOG_ENTRY_BYTES, MachineConfig, Scheme
from repro.power import ed2, energy_of_stats
from repro.sim.faults import FaultPlan
from repro.sim.stats import summarize_campaign
from repro.workloads import (
    ALL_APPS,
    BARRIER_INTENSIVE,
    LOW_ICHK,
    PARSEC_APACHE,
    SPLASH2,
    workload_name,
)

#: Schemes of the Figure 6.3 comparison, in bar order.
OVERHEAD_SCHEMES = (Scheme.GLOBAL, Scheme.GLOBAL_DWB,
                    Scheme.REBOUND_NODWB, Scheme.REBOUND)

#: Schemes of the Figure 6.4 comparison, in bar order.
BARRIER_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB,
                   Scheme.REBOUND_NODWB_BARR, Scheme.REBOUND,
                   Scheme.REBOUND_BARR)


@dataclass
class ExperimentResult:
    """Common shape: an id, column headers, data rows, and notes."""

    experiment: str
    headers: list[str]
    rows: list[list]
    notes: str = ""

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            text += f"\n{self.notes}"
        return text


# ---------------------------------------------------------------------------
# Figures 6.1 / 6.2 — Interaction Set for Checkpointing sizes
# ---------------------------------------------------------------------------

def fig6_1_ichk_parsec(runner: Runner, n_cores: int = 24,
                       apps: list[str] | None = None) -> ExperimentResult:
    """Average ICHK size, PARSEC + Apache (Figure 6.1)."""
    apps = apps if apps is not None else PARSEC_APACHE
    runner.prefetch(plan_fig6_1(runner, n_cores, apps))
    rows = []
    fractions = []
    for app in apps:
        stats = runner.run(app, n_cores, Scheme.REBOUND)
        frac = stats.mean_ichk_fraction()
        fractions.append(frac)
        rows.append([app, "100.0%", f"{100 * frac:.1f}%"])
    rows.append(["average", "100.0%",
                 f"{100 * mean(fractions):.1f}%" if fractions else "-"])
    return ExperimentResult(
        "Figure 6.1: mean ICHK size (% of processors), "
        f"{n_cores}-processor PARSEC/Apache",
        ["app", "Global", "Rebound"], rows,
        notes="paper: Rebound average ~40%; Blackscholes/Apache ~20%")


def fig6_2_ichk_splash(runner: Runner, sizes: tuple[int, ...] = (32, 64),
                       apps: list[str] | None = None) -> ExperimentResult:
    """Average ICHK size, SPLASH-2 at 32 and 64 processors (Figure 6.2)."""
    apps = apps if apps is not None else SPLASH2
    runner.prefetch(plan_fig6_2(runner, sizes, apps))
    rows = []
    averages = {n: [] for n in sizes}
    for app in apps:
        row = [app]
        for n_cores in sizes:
            stats = runner.run(app, n_cores, Scheme.REBOUND)
            frac = stats.mean_ichk_fraction()
            averages[n_cores].append(frac)
            row.append(f"{100 * frac:.1f}%")
        rows.append(row)
    rows.append(["average"] + [
        f"{100 * mean(averages[n]):.1f}%" if averages[n] else "-"
        for n in sizes])
    return ExperimentResult(
        "Figure 6.2: mean ICHK size (% of processors), SPLASH-2",
        ["app"] + [f"{n}p Rebound" for n in sizes], rows,
        notes="paper: ~60% average; Ocean/Raytrace ~100%; "
              "32->64p grows only slightly")


# ---------------------------------------------------------------------------
# Figure 6.3 — error-free checkpointing overhead
# ---------------------------------------------------------------------------

def fig6_3_overhead(runner: Runner, apps: list[str] | None = None,
                    n_cores: int = 64,
                    suite: str = "SPLASH-2") -> ExperimentResult:
    """Checkpointing overhead during error-free execution (Figure 6.3)."""
    apps = apps if apps is not None else SPLASH2
    runner.prefetch(plan_fig6_3(runner, apps, n_cores))
    rows = []
    sums = {scheme: [] for scheme in OVERHEAD_SCHEMES}
    for app in apps:
        row = [app]
        for scheme in OVERHEAD_SCHEMES:
            overhead = runner.overhead(app, n_cores, scheme)
            sums[scheme].append(overhead)
            row.append(f"{100 * overhead:.2f}%")
        rows.append(row)
    rows.append(["average"] + [
        f"{100 * mean(sums[s]):.2f}%" if sums[s] else "-"
        for s in OVERHEAD_SCHEMES])
    return ExperimentResult(
        f"Figure 6.3: error-free checkpoint overhead, {suite} "
        f"at {n_cores} processors",
        ["app"] + [s.value for s in OVERHEAD_SCHEMES], rows,
        notes="paper (SPLASH-2@64): Global ~15%, Global_DWB ~8%, "
              "Rebound_NoDWB ~7%, Rebound ~2%")


# ---------------------------------------------------------------------------
# Figure 6.4 — the barrier optimization
# ---------------------------------------------------------------------------

def fig6_4_barrier(runner: Runner, apps: list[str] | None = None,
                   n_cores: int = 64) -> ExperimentResult:
    """Impact of the Barrier optimization (Figure 6.4)."""
    apps = apps if apps is not None else BARRIER_INTENSIVE
    runner.prefetch(plan_fig6_4(runner, apps, n_cores))
    rows = []
    sums = {scheme: [] for scheme in BARRIER_SCHEMES}
    for app in apps:
        row = [app]
        for scheme in BARRIER_SCHEMES:
            overhead = runner.overhead(app, n_cores, scheme)
            sums[scheme].append(overhead)
            row.append(f"{100 * overhead:.2f}%")
        rows.append(row)
    rows.append(["average"] + [
        f"{100 * mean(sums[s]):.2f}%" if sums[s] else "-"
        for s in BARRIER_SCHEMES])
    return ExperimentResult(
        f"Figure 6.4: barrier optimization, barrier-intensive apps "
        f"at {n_cores} processors",
        ["app"] + [s.value for s in BARRIER_SCHEMES], rows,
        notes="paper: Barrier opt and delayed WBs have similar impact; "
              "combining them is not additive")


# ---------------------------------------------------------------------------
# Figure 6.5 — overhead breakdown
# ---------------------------------------------------------------------------

BREAKDOWN_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)
BREAKDOWN_CATEGORIES = ("WBDelay", "WBImbalanceDelay", "SyncDelay",
                        "IPCDelay")


def fig6_5_breakdown(runner: Runner, apps: list[str] | None = None,
                     splash_cores: int = 64,
                     parsec_cores: int = 24) -> ExperimentResult:
    """Checkpoint-overhead breakdown, normalized to Global (Figure 6.5)."""
    apps = apps if apps is not None else ALL_APPS
    runner.prefetch(plan_fig6_5(runner, apps, splash_cores, parsec_cores))
    rows = []
    for app in apps:
        n_cores = splash_cores if app in SPLASH2 else parsec_cores
        global_total = None
        for scheme in BREAKDOWN_SCHEMES:
            stats = runner.run(app, n_cores, scheme)
            breakdown = stats.breakdown()
            total = sum(breakdown.values())
            if scheme is Scheme.GLOBAL:
                global_total = total or 1.0
            row = [app, scheme.value]
            for category in BREAKDOWN_CATEGORIES:
                row.append(f"{100 * breakdown[category] / global_total:.1f}%")
            row.append(f"{100 * total / global_total:.1f}%")
            rows.append(row)
    return ExperimentResult(
        "Figure 6.5: overhead breakdown (normalized to Global = 100%)",
        ["app", "scheme"] + list(BREAKDOWN_CATEGORIES) + ["total"], rows,
        notes="paper: Global/Rebound_NoDWB dominated by WBDelay+"
              "WBImbalance; Rebound by IPCDelay; SyncDelay minor")


# ---------------------------------------------------------------------------
# Figure 6.6 — scalability (overhead, energy, recovery latency)
# ---------------------------------------------------------------------------

SCALABILITY_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)


def fig6_6_scalability(runner: Runner, apps: list[str] | None = None,
                       sizes: tuple[int, ...] = (16, 32, 64)
                       ) -> ExperimentResult:
    """Overhead / energy increase / recovery latency vs. cores (Fig 6.6)."""
    apps = apps if apps is not None else SPLASH2
    runner.prefetch(plan_fig6_6(runner, apps, sizes))
    # Recovery latency averages a representative subset of the apps
    # (the first five) to bound the fault-run count.
    recovery_apps = apps[:5]
    rows = []
    for n_cores in sizes:
        for scheme in SCALABILITY_SCHEMES:
            overheads, energy_increases, recoveries = [], [], []
            for app in apps:
                overheads.append(runner.overhead(app, n_cores, scheme))
                stats = runner.run(app, n_cores, scheme)
                base = runner.baseline(app, n_cores)
                e_scheme = energy_of_stats(stats).total_j
                e_base = energy_of_stats(base).total_j
                energy_increases.append((e_scheme - e_base) /
                                        e_base if e_base else 0.0)
                if app in recovery_apps:
                    latency = _recovery_latency(
                        runner, app, n_cores, scheme)
                    if latency is not None:
                        recoveries.append(latency)
            rows.append([
                n_cores, scheme.value,
                f"{100 * mean(overheads):.2f}%",
                f"{100 * mean(energy_increases):.2f}%",
                f"{mean(recoveries):,.0f}" if recoveries else "-",
            ])
    return ExperimentResult(
        "Figure 6.6: scalability with processor count (SPLASH-2 average)",
        ["cores", "scheme", "ckpt overhead", "energy increase",
         "recovery latency (cycles)"], rows,
        notes="paper: Global grows steeply with cores on all three "
              "metrics; Rebound stays nearly flat; Rebound recovery > "
              "Rebound_NoDWB (one extra interval) but << Global")


def _recovery_latency(runner: Runner, app: str, n_cores: int,
                      scheme: Scheme) -> Optional[float]:
    """Mean recovery latency with a fault injected late in the run.

    The paper measures a transient fault right before a checkpoint; we
    inject on core 0 late in the run (cycles ~ instructions for these
    1-IPC cores) so at least one checkpoint is safe.  A fault the run
    finished before detecting yields no recovery at all: warn and
    return None (skipped from the average) instead of letting a fake
    0-cycle recovery deflate Figure 6.6.
    """
    fault_at = _recovery_fault_at(runner, n_cores)
    stats = runner.run(app, n_cores, scheme, fault_at=fault_at)
    if not stats.rollbacks:
        warnings.warn(
            f"fig6_6: fault at cycle {fault_at:,.0f} in {app} x{n_cores} "
            f"{scheme.value} was never delivered "
            f"({stats.undelivered_faults} undelivered); skipping its "
            f"recovery-latency sample", stacklevel=2)
        return None
    return stats.mean_recovery_latency()


# ---------------------------------------------------------------------------
# Figure 6.7 — output I/O
# ---------------------------------------------------------------------------

def fig6_7_io(runner: Runner, apps: list[str] | None = None,
              n_cores: int = 64) -> ExperimentResult:
    """Effect of output I/O on the checkpoint interval (Figure 6.7).

    One processor initiates a checkpoint every half interval (as if
    performing output I/O); the figure reports the resulting machine-wide
    effective checkpoint interval, relative to the configured one.
    """
    apps = apps if apps is not None else LOW_ICHK
    runner.prefetch(plan_fig6_7(runner, apps, n_cores))
    io_every = _io_every(runner, n_cores)
    rows = []
    ratios = {Scheme.GLOBAL: [], Scheme.REBOUND: []}
    for app in apps:
        row = [app]
        for scheme in (Scheme.GLOBAL, Scheme.REBOUND):
            stats = runner.run(app, n_cores, scheme, io_every=io_every)
            baseline = runner.run(app, n_cores, scheme)
            effective = stats.mean_effective_ckpt_interval()
            reference = baseline.mean_effective_ckpt_interval()
            ratio = effective / reference if reference else 0.0
            ratios[scheme].append(ratio)
            row.append(f"{100 * ratio:.0f}%")
        rows.append(row)
    rows.append(["average"] + [
        f"{100 * mean(ratios[s]):.0f}%" if ratios[s] else "-"
        for s in (Scheme.GLOBAL, Scheme.REBOUND)])
    return ExperimentResult(
        f"Figure 6.7: effective checkpoint interval under output I/O "
        f"(% of configured interval), {n_cores} processors",
        ["app", "Global-I/O", "Rebound-I/O"], rows,
        notes="paper: Global-I/O collapses to ~50% (2.5M of 5M cycles); "
              "Rebound-I/O stays above ~80% (4M of 5M)")


# ---------------------------------------------------------------------------
# Figure 6.8 — power
# ---------------------------------------------------------------------------

POWER_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)


def fig6_8_power(runner: Runner, apps: list[str] | None = None,
                 n_cores: int = 64) -> ExperimentResult:
    """Estimated on-chip power, SPLASH-2 average (Figure 6.8)."""
    apps = apps if apps is not None else SPLASH2
    runner.prefetch(plan_fig6_8(runner, apps, n_cores))
    rows = []
    powers = {}
    ed2s = {}
    for scheme in POWER_SCHEMES:
        per_app_power, per_app_ed2 = [], []
        for app in apps:
            stats = runner.run(app, n_cores, scheme)
            report = energy_of_stats(stats)
            per_app_power.append(report.power_w)
            per_app_ed2.append(ed2(report))
        powers[scheme] = mean(per_app_power)
        ed2s[scheme] = mean(per_app_ed2)
    base_power = powers[Scheme.GLOBAL] or 1.0
    base_ed2 = ed2s[Scheme.GLOBAL] or 1.0
    for scheme in POWER_SCHEMES:
        rows.append([
            scheme.value, f"{powers[scheme]:.2f} W",
            f"{100 * (powers[scheme] / base_power - 1):+.1f}%",
            f"{100 * (ed2s[scheme] / base_ed2 - 1):+.1f}%",
        ])
    return ExperimentResult(
        f"Figure 6.8: estimated power, SPLASH-2 average at {n_cores} "
        "processors",
        ["scheme", "power", "vs Global", "ED^2 vs Global"], rows,
        notes="paper: Rebound_NoDWB +2% and Rebound +4% power vs Global "
              "(1.3% structures); Rebound ED^2 -27%")


# ---------------------------------------------------------------------------
# Figure 6.9 (extension) — Monte Carlo fault campaigns
# ---------------------------------------------------------------------------

class CampaignVariant(NamedTuple):
    """One bar of the campaign comparison: a scheme at a cluster size."""

    label: str
    scheme: Scheme
    cluster: int


#: Default campaign comparison: Rebound vs Global vs cluster-granular
#: Rebound (Chapter 8's trade-off) under the same fault process.
CAMPAIGN_VARIANTS = (
    CampaignVariant("global", Scheme.GLOBAL, 1),
    CampaignVariant("rebound", Scheme.REBOUND, 1),
    CampaignVariant("rebound@4", Scheme.REBOUND, 4),
)

#: Apps of the default campaign sweep (one low-ICHK, one high-ICHK).
CAMPAIGN_APPS = ["blackscholes", "ocean"]


def parse_variant(token: str) -> CampaignVariant:
    """``"rebound"`` or ``"rebound@4"`` (scheme at cluster size 4).

    Scheme names resolve through the scheme registry, so out-of-tree
    schemes registered via :func:`repro.core.register_scheme` work in
    CLI scheme arguments too.
    """
    name, _, cluster = token.partition("@")
    scheme = resolve_scheme(name)
    try:
        size = int(cluster) if cluster else 1
    except ValueError:
        raise ValueError(
            f"cluster size in {token!r} must be an integer "
            f"(e.g. rebound@4)") from None
    if size < 1:
        raise ValueError(f"cluster size must be >= 1, got {size}")
    return CampaignVariant(token, scheme, size)


@lru_cache(maxsize=None)
def _seeded_plans(n_cores: int, n_seeds: int, base_seed: int,
                  mttf: float, horizon: float) -> tuple[FaultPlan, ...]:
    """Seed-deterministic plan set, built once per distinct cell.

    fig6_9, fig_l sensitivity points and the invariant benchmarks all
    draw the *same* plans (same seeds, same fault process); sharing the
    frozen :class:`FaultPlan` instances also makes the RunKeys they key
    compare by identity first.  The cache key is scalars only — runner
    state is resolved by the caller — so it is exact, and the plans are
    immutable so sharing them is safe.
    """
    return tuple(FaultPlan.from_mttf(seed=base_seed + i, mttf=mttf,
                                     horizon=horizon, n_cores=n_cores)
                 for i in range(n_seeds))


def _campaign_plans(runner: Runner, n_cores: int, n_seeds: int,
                    base_seed: int, mttf_intervals: float
                    ) -> list[FaultPlan]:
    """The seeded fault plans of one campaign cell.

    The MTTF is expressed in checkpoint intervals (machine-wide), so
    the fault pressure is scale-invariant; the horizon covers the whole
    run (instructions ~ cycles for these 1-IPC cores, and runs only
    ever take *longer* than their instruction count — a fault drawn
    past the actual end is recorded as undelivered, which the summary
    reports rather than hides).
    """
    interval = _configured_interval(runner, n_cores)
    return list(_seeded_plans(n_cores, n_seeds, base_seed,
                              mttf_intervals * interval,
                              runner.intervals * interval))


def fig6_9_campaign(runner: Runner, apps: list[str] | None = None,
                    sizes: tuple[int, ...] = (8, 16),
                    variants: tuple[CampaignVariant, ...] = CAMPAIGN_VARIANTS,
                    n_seeds: int = 3, base_seed: int = 100,
                    mttf_intervals: float = 1.0) -> ExperimentResult:
    """Monte Carlo fault campaign: recovery cost under an MTTF model.

    For every (processor count, variant) cell, ``n_seeds`` seeded
    multi-fault runs per app are simulated (faults drawn from an
    exponential model, any core, including mid-checkpoint and
    back-to-back) and aggregated into availability, work-lost and
    IREC/recovery-latency distributions.  Plans are seed-deterministic,
    so every run is cacheable and parallelizable through the engine.
    """
    apps = apps if apps is not None else CAMPAIGN_APPS
    runner.prefetch(plan_fig6_9(runner, apps, sizes, variants, n_seeds,
                                base_seed, mttf_intervals))
    rows = []
    for n_cores in sizes:
        plans = _campaign_plans(runner, n_cores, n_seeds, base_seed,
                                mttf_intervals)
        for variant in variants:
            runs = [runner.run(app, n_cores, variant.scheme,
                               fault_plan=plan, cluster=variant.cluster)
                    for app in apps for plan in plans]
            summary = summarize_campaign(runs)
            rows.append([
                n_cores, variant.label,
                f"{100 * summary.mean_availability:.2f}%",
                f"{100 * summary.mean_effective_availability:.2f}%",
                f"{summary.mean_work_lost:,.0f}",
                f"{summary.mean_rollbacks_per_run:.1f}",
                f"{summary.mean_irec_size:.1f}",
                (f"{summary.recovery_latency_percentile(95):,.0f}"
                 if summary.recovery_latencies else "-"),
                f"{summary.delivered_faults}/{summary.injected_faults}",
            ])
    return ExperimentResult(
        f"Figure 6.9 (ext): fault campaign, MTTF = {mttf_intervals:g} "
        f"interval(s), {n_seeds} seed(s)/app, "
        f"apps={'+'.join(workload_name(app) for app in apps)}",
        ["cores", "variant", "availability", "eff avail",
         "work lost (cyc)", "rollbacks/run", "mean |IREC|",
         "p95 recovery (cyc)", "delivered"], rows,
        notes="extension: Rebound rolls back only the IREC, so its "
              "availability stays above Global's and its work-lost "
              "stays flat as the machine grows; cluster mode trades "
              "toward Global.  'eff avail' additionally charges the "
              "checkpointing work itself (useful cycles / total), so "
              "the Rebound-vs-Global gap it shows is the full one.")


# ---------------------------------------------------------------------------
# L sensitivity (extension) — detection latency vs recovery cost
# ---------------------------------------------------------------------------

#: Schemes of the detection-latency sensitivity comparison.
L_SENSITIVITY_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND)

#: Detection latencies swept, as fractions of a checkpoint interval.
#: The paper's upper bound (Section 3.2) is 500K cycles against a
#: 4M-instruction interval, i.e. 0.125; the sweep brackets it.
L_FRACTIONS = (0.02, 0.125, 0.5)


def _l_values(runner: Runner, n_cores: int,
              fractions: tuple[float, ...]) -> list[int]:
    """The swept detection latencies, in cycles at the runner's scale."""
    interval = _configured_interval(runner, n_cores)
    return [max(1, int(frac * interval)) for frac in fractions]


def fig_l_sensitivity(runner: Runner, apps: list[str] | None = None,
                      n_cores: int = 8, n_seeds: int = 2,
                      base_seed: int = 100, mttf_intervals: float = 1.0,
                      l_fractions: tuple[float, ...] = L_FRACTIONS
                      ) -> ExperimentResult:
    """Recovery latency / availability vs detection latency L (Sec 3.2).

    The fault process is held fixed (same seeded plans) while the
    machine's detection latency sweeps across ``l_fractions`` of a
    checkpoint interval, via a ``RunKey`` config override — the knob
    reaches the engine without any engine code knowing about it.  A
    larger L delays detection, so more speculative work piles up past
    the fault and more log entries must be undone: mean recovery
    latency is non-decreasing in L and availability erodes.
    """
    apps = apps if apps is not None else CAMPAIGN_APPS
    runner.prefetch(plan_fig_l_sensitivity(
        runner, apps, n_cores, n_seeds, base_seed, mttf_intervals,
        l_fractions))
    plans = _campaign_plans(runner, n_cores, n_seeds, base_seed,
                            mttf_intervals)
    interval = _configured_interval(runner, n_cores)
    rows = []
    for latency in _l_values(runner, n_cores, l_fractions):
        for scheme in L_SENSITIVITY_SCHEMES:
            runs = [runner.run(app, n_cores, scheme, fault_plan=plan,
                               overrides={"detection_latency": latency})
                    for app in apps for plan in plans]
            summary = summarize_campaign(runs)
            rows.append([
                f"{latency:,}", f"{latency / interval:.3g}", scheme.value,
                (f"{summary.mean_recovery_latency:,.0f}"
                 if summary.recovery_latencies else "-"),
                (f"{summary.recovery_latency_percentile(95):,.0f}"
                 if summary.recovery_latencies else "-"),
                f"{100 * summary.mean_availability:.2f}%",
                f"{100 * summary.mean_effective_availability:.2f}%",
                f"{summary.mean_work_lost:,.0f}",
                f"{summary.delivered_faults}/{summary.injected_faults}",
            ])
    return ExperimentResult(
        f"L sensitivity (ext): detection latency sweep, {n_cores} "
        f"processors, MTTF = {mttf_intervals:g} interval(s), "
        f"apps={'+'.join(workload_name(app) for app in apps)}",
        ["L (cyc)", "L/interval", "scheme", "mean recovery (cyc)",
         "p95 recovery (cyc)", "availability", "eff avail",
         "work lost (cyc)", "delivered"], rows,
        notes="paper Sec 3.2: L only bounds how fresh a restorable "
              "checkpoint can be; recovery latency grows with L while "
              "Rebound's localized rollback keeps availability above "
              "Global's at every L")


# ---------------------------------------------------------------------------
# Table 6.1 — characterization
# ---------------------------------------------------------------------------

def table6_1_characterization(runner: Runner,
                              apps: list[str] | None = None,
                              splash_cores: int = 64,
                              parsec_cores: int = 24) -> ExperimentResult:
    """WSIG false positives, log size, extra messages (Table 6.1)."""
    apps = apps if apps is not None else ALL_APPS
    runner.prefetch(plan_table6_1(runner, apps, splash_cores, parsec_cores))
    rows = []
    fp_incs, log_mbs, msg_incs = [], [], []
    for app in apps:
        n_cores = splash_cores if app in SPLASH2 else parsec_cores
        stats = runner.run(app, n_cores, Scheme.REBOUND)
        fp_inc = stats.ichk_fp_increase_percent()
        log_mb = stats.max_interval_log_bytes / 1e6
        # Rescale the log volume to the paper's 4M-instruction interval.
        scale = 4_000_000 / stats.config.checkpoint_interval
        log_mb_paper = log_mb * scale
        msg_inc = stats.dep_message_percent()
        fp_incs.append(fp_inc)
        log_mbs.append(log_mb_paper)
        msg_incs.append(msg_inc)
        rows.append([app, f"{fp_inc:.1f}%", f"{log_mb:.3f}",
                     f"{log_mb_paper:.1f}", f"{msg_inc:.1f}%"])
    rows.append(["average", f"{mean(fp_incs):.1f}%",
                 f"{mean(log_mbs) / (4_000_000 / 100_000):.3f}",
                 f"{mean(log_mbs):.1f}", f"{mean(msg_incs):.1f}%"])
    return ExperimentResult(
        "Table 6.1: Rebound characterization",
        ["app", "ICHK FP increase", "log MB/interval (scaled)",
         "log MB/interval (paper-rescaled)", "extra coherence msgs"],
        rows,
        notes="paper: FP increase 2.0% avg; log 7.2 MB avg; extra "
              "messages 4.2% avg")


# ---------------------------------------------------------------------------
# planners: the RunKey set each driver will request, computed up front
#
# Each planner is a declarative :class:`SweepSpec` — an ordered axis
# list whose cartesian product is exactly the key set the driver
# requests (grids union with ``+`` where a parameter depends on another
# axis, e.g. a fault time that depends on the core count).  The specs
# produce the same RunKeys (and therefore the same cache paths) as the
# hand-written loop bodies they replaced; tests/test_scenario.py pins
# that equivalence.
# ---------------------------------------------------------------------------

def _configured_interval(runner: Runner, n_cores: int) -> int:
    """The checkpoint interval a run at this scale will be configured
    with — derivable without simulating (it depends only on the scale),
    so planners can enumerate I/O- and fault-parameterized keys."""
    return MachineConfig.scaled(n_cores=n_cores, scheme=Scheme.NONE,
                                scale=runner.scale).checkpoint_interval


def _recovery_fault_at(runner: Runner, n_cores: int) -> float:
    """Fault-injection time of the Fig 6.6 recovery runs: late in the
    run but comfortably before it ends, whatever ``--intervals`` says
    (shared by the driver and its planner, so the planned keys are
    exactly the keys the driver requests).  At the default 3-interval
    length this is the historical 2.6 intervals; shorter runs (e.g.
    ``--quick``'s 2 intervals) pull the fault in so its detection still
    lands inside the run instead of being silently dropped."""
    fraction = min(2.6, max(0.6, runner.intervals - 0.4))
    return fraction * _configured_interval(runner, n_cores)


def _io_every(runner: Runner, n_cores: int) -> int:
    """Fig 6.7's output-I/O period: half the configured interval
    (shared by the driver and its planner)."""
    return _configured_interval(runner, n_cores) // 2


def _per_app_cores_spec(apps: list[str], splash_cores: int,
                        parsec_cores: int, schemes) -> SweepSpec:
    """One grid per app (SPLASH-2 and PARSEC run at different sizes)."""
    return sum((SweepSpec.grid(
        app=app,
        n_cores=splash_cores if app in SPLASH2 else parsec_cores,
        scheme=schemes) for app in apps), SweepSpec())


def spec_fig6_1(runner: Runner, n_cores: int = 24,
                apps: list[str] | None = None) -> SweepSpec:
    apps = apps if apps is not None else PARSEC_APACHE
    return SweepSpec.grid(app=apps, n_cores=n_cores, scheme=Scheme.REBOUND)


def spec_fig6_2(runner: Runner, sizes: tuple[int, ...] = (32, 64),
                apps: list[str] | None = None) -> SweepSpec:
    apps = apps if apps is not None else SPLASH2
    return SweepSpec.grid(app=apps, n_cores=list(sizes),
                          scheme=Scheme.REBOUND)


def spec_fig6_3(runner: Runner, apps: list[str] | None = None,
                n_cores: int = 64, suite: str = "SPLASH-2") -> SweepSpec:
    apps = apps if apps is not None else SPLASH2
    return SweepSpec.grid(app=apps, scheme=(*OVERHEAD_SCHEMES, Scheme.NONE),
                          n_cores=n_cores)


def spec_fig6_4(runner: Runner, apps: list[str] | None = None,
                n_cores: int = 64) -> SweepSpec:
    apps = apps if apps is not None else BARRIER_INTENSIVE
    return SweepSpec.grid(app=apps, scheme=(*BARRIER_SCHEMES, Scheme.NONE),
                          n_cores=n_cores)


def spec_fig6_5(runner: Runner, apps: list[str] | None = None,
                splash_cores: int = 64,
                parsec_cores: int = 24) -> SweepSpec:
    apps = apps if apps is not None else ALL_APPS
    return _per_app_cores_spec(apps, splash_cores, parsec_cores,
                               BREAKDOWN_SCHEMES)


def spec_fig6_6(runner: Runner, apps: list[str] | None = None,
                sizes: tuple[int, ...] = (16, 32, 64)) -> SweepSpec:
    apps = apps if apps is not None else SPLASH2
    recovery_apps = apps[:5]
    spec = SweepSpec()
    for n_cores in sizes:
        spec += SweepSpec.grid(
            n_cores=n_cores, scheme=(*SCALABILITY_SCHEMES, Scheme.NONE),
            app=apps)
        spec += SweepSpec.grid(
            n_cores=n_cores, scheme=SCALABILITY_SCHEMES, app=recovery_apps,
            fault_at=_recovery_fault_at(runner, n_cores))
    return spec


def spec_fig6_7(runner: Runner, apps: list[str] | None = None,
                n_cores: int = 64) -> SweepSpec:
    apps = apps if apps is not None else LOW_ICHK
    return SweepSpec.grid(app=apps, scheme=(Scheme.GLOBAL, Scheme.REBOUND),
                          io_every=[_io_every(runner, n_cores), None],
                          n_cores=n_cores)


def spec_fig6_8(runner: Runner, apps: list[str] | None = None,
                n_cores: int = 64) -> SweepSpec:
    apps = apps if apps is not None else SPLASH2
    return SweepSpec.grid(scheme=POWER_SCHEMES, app=apps, n_cores=n_cores)


def spec_fig6_9(runner: Runner, apps: list[str] | None = None,
                sizes: tuple[int, ...] = (8, 16),
                variants: tuple[CampaignVariant, ...] = CAMPAIGN_VARIANTS,
                n_seeds: int = 3, base_seed: int = 100,
                mttf_intervals: float = 1.0) -> SweepSpec:
    apps = apps if apps is not None else CAMPAIGN_APPS
    return sum((SweepSpec.grid(
        n_cores=n_cores, scheme=variant.scheme, cluster=variant.cluster,
        app=apps,
        fault_plan=_campaign_plans(runner, n_cores, n_seeds, base_seed,
                                   mttf_intervals))
        for n_cores in sizes for variant in variants), SweepSpec())


def spec_fig_l_sensitivity(runner: Runner, apps: list[str] | None = None,
                           n_cores: int = 8, n_seeds: int = 2,
                           base_seed: int = 100,
                           mttf_intervals: float = 1.0,
                           l_fractions: tuple[float, ...] = L_FRACTIONS
                           ) -> SweepSpec:
    apps = apps if apps is not None else CAMPAIGN_APPS
    return SweepSpec.grid(
        n_cores=n_cores,
        detection_latency=_l_values(runner, n_cores, l_fractions),
        scheme=list(L_SENSITIVITY_SCHEMES), app=apps,
        fault_plan=_campaign_plans(runner, n_cores, n_seeds, base_seed,
                                   mttf_intervals))


def spec_table6_1(runner: Runner, apps: list[str] | None = None,
                  splash_cores: int = 64,
                  parsec_cores: int = 24) -> SweepSpec:
    apps = apps if apps is not None else ALL_APPS
    return _per_app_cores_spec(apps, splash_cores, parsec_cores,
                               Scheme.REBOUND)


def _keys_of(spec_fn):
    """A ``plan_*`` function (RunKey list) from a ``spec_*`` function."""
    def planner(runner: Runner, *args, **kwargs) -> list[RunKey]:
        return spec_fn(runner, *args, **kwargs).keys(runner)
    planner.__name__ = spec_fn.__name__.replace("spec_", "plan_")
    planner.__doc__ = spec_fn.__doc__
    return planner


plan_fig6_1 = _keys_of(spec_fig6_1)
plan_fig6_2 = _keys_of(spec_fig6_2)
plan_fig6_3 = _keys_of(spec_fig6_3)
plan_fig6_4 = _keys_of(spec_fig6_4)
plan_fig6_5 = _keys_of(spec_fig6_5)
plan_fig6_6 = _keys_of(spec_fig6_6)
plan_fig6_7 = _keys_of(spec_fig6_7)
plan_fig6_8 = _keys_of(spec_fig6_8)
plan_fig6_9 = _keys_of(spec_fig6_9)
plan_fig_l_sensitivity = _keys_of(spec_fig_l_sensitivity)
plan_table6_1 = _keys_of(spec_table6_1)


ALL_PLANS = {
    "fig6_1": plan_fig6_1,
    "fig6_2": plan_fig6_2,
    "fig6_3": plan_fig6_3,
    "fig6_4": plan_fig6_4,
    "fig6_5": plan_fig6_5,
    "fig6_6": plan_fig6_6,
    "fig6_7": plan_fig6_7,
    "fig6_8": plan_fig6_8,
    "fig6_9": plan_fig6_9,
    "fig_l_sensitivity": plan_fig_l_sensitivity,
    "table6_1": plan_table6_1,
}


def plan_experiment(name: str, runner: Runner, **kwargs) -> list[RunKey]:
    """Enumerate the runs experiment ``name`` needs (without running)."""
    if name not in ALL_PLANS:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {sorted(ALL_PLANS)}")
    return ALL_PLANS[name](runner, **kwargs)


# ---------------------------------------------------------------------------
# convenience: run everything
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS = {
    "fig6_1": fig6_1_ichk_parsec,
    "fig6_2": fig6_2_ichk_splash,
    "fig6_3": fig6_3_overhead,
    "fig6_4": fig6_4_barrier,
    "fig6_5": fig6_5_breakdown,
    "fig6_6": fig6_6_scalability,
    "fig6_7": fig6_7_io,
    "fig6_8": fig6_8_power,
    "fig6_9": fig6_9_campaign,
    "fig_l_sensitivity": fig_l_sensitivity,
    "table6_1": table6_1_characterization,
}


def run_experiment(name: str, runner: Runner | None = None,
                   **kwargs) -> ExperimentResult:
    """Run one named experiment (see :data:`ALL_EXPERIMENTS`)."""
    if name not in ALL_EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {sorted(ALL_EXPERIMENTS)}")
    runner = runner or Runner()
    return ALL_EXPERIMENTS[name](runner, **kwargs)
