"""The evaluation chapter as data: one :class:`Figure` per figure/table.

A figure is declared once, in :data:`FIGURES`: its parameter defaults,
the :class:`~repro.harness.scenario.SweepSpec` of runs it needs, a
reducer that turns those runs into rows of numbers, and what rendering
needs (title, column headers and formats, and a paper-vs-measured
``notes`` line).  :func:`plan_experiment` enumerates a figure's exact
:class:`~repro.harness.engine.RunKey` list without running anything;
:func:`run_experiment` prefetches that plan (so a single figure
parallelizes by itself) and reduces; ``python -m repro.harness`` unions
the plans of every requested figure up front, deduplicating shared runs
across figures before handing them to the engine's process pool in one
batch.  :meth:`ExperimentResult.render` is the one place a number
becomes text.

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

import inspect
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from statistics import mean
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from repro.core.factory import resolve_scheme
from repro.harness.engine import RunKey
from repro.harness.report import format_table
from repro.harness.runner import Runner
from repro.harness.scenario import SweepSpec
from repro.params import MachineConfig, Scheme
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

# Cell formats: a cell renders as ``fmt.format(value)``, or ``-`` for None.
LABEL = "{}"
PCT0, PCT1, PCT2 = "{:.0f}%", "{:.1f}%", "{:.2f}%"
CYCLES = "{:,.0f}"
FAULTS = "{0[0]}/{0[1]}"          # (delivered, injected)


@dataclass
class ExperimentResult:
    """Common shape: a title, column headers, data rows, and notes.

    With ``formats`` (one per column) the rows hold numbers and
    :meth:`render` formats them; without, the cells are printed as
    given.
    """

    experiment: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    formats: Sequence[str] = ()

    def render(self) -> str:
        rows = self.rows
        if self.formats:
            rows = [["-" if value is None else fmt.format(value)
                     for fmt, value in zip(self.formats, row)]
                    for row in rows]
        text = format_table(self.headers, rows, title=self.experiment)
        if self.notes:
            text += f"\n{self.notes}"
        return text


@dataclass(frozen=True)
class Figure:
    """One figure or table, declared once.

    ``defaults`` holds every parameter with its default, in positional
    order.  ``cli(splash_cores, parsec_cores)`` gives the parameters the
    CLI derives from its core counts, and ``quick`` what ``--quick``
    narrows on top.  ``spec`` and
    ``reduce`` take the runner and the parameters (as attributes):
    ``spec`` returns the runs the figure needs, ``reduce`` its rows of
    numbers (``None`` where a cell prints ``-``).  ``columns(params)``
    lists each column's header and cell format, and ``title`` is
    formatted with the parameters plus ``app_names``.
    """

    defaults: dict
    cli: Callable[[int, int], dict]
    spec: Callable[[Runner, SimpleNamespace], SweepSpec]
    reduce: Callable[[Runner, SimpleNamespace], list[list]]
    title: str
    columns: Callable[[SimpleNamespace], list[tuple[str, str]]]
    notes: str
    quick: dict = field(default_factory=dict)

    def params(self, *args, **kwargs) -> SimpleNamespace:
        signature = inspect.Signature([
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=default)
            for name, default in self.defaults.items()])
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return SimpleNamespace(**bound.arguments)

    def plan(self, runner: Runner, *args, **kwargs) -> list[RunKey]:
        """The RunKeys this figure needs, in request order."""
        return self.spec(runner, self.params(*args, **kwargs)).keys(runner)

    def run(self, runner: Runner, *args, **kwargs) -> ExperimentResult:
        params = self.params(*args, **kwargs)
        runner.prefetch(self.spec(runner, params).keys(runner))
        headers, formats = zip(*self.columns(params))
        app_names = "+".join(workload_name(app) for app in params.apps)
        return ExperimentResult(
            self.title.format(app_names=app_names, **vars(params)),
            list(headers), self.reduce(runner, params), self.notes,
            formats)


class _Registry(dict):
    def __missing__(self, name):
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(self)}")


#: Every figure and table, in the CLI's default order.
FIGURES: dict[str, Figure] = _Registry()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _configured_interval(runner: Runner, n_cores: int) -> int:
    """The checkpoint interval a run at this scale will be configured
    with — derivable without simulating (it depends only on the scale),
    so specs can enumerate I/O- and fault-parameterized keys."""
    return MachineConfig.scaled(n_cores=n_cores, scheme=Scheme.NONE,
                                scale=runner.scale).checkpoint_interval


def _at_splash(splash_cores: int, parsec_cores: int) -> dict:
    return {"n_cores": splash_cores}


def _per_suite(splash_cores: int, parsec_cores: int) -> dict:
    return {"splash_cores": splash_cores, "parsec_cores": parsec_cores}


def _suite_cores(app: str, p) -> int:
    """SPLASH-2 and PARSEC/Apache run at different sizes."""
    return p.splash_cores if app in SPLASH2 else p.parsec_cores


def _per_suite_spec(schemes, runner: Runner, p) -> SweepSpec:
    """One grid per app, each at its suite's processor count."""
    return sum((SweepSpec.grid(app=app, n_cores=_suite_cores(app, p),
                               scheme=schemes) for app in p.apps),
               SweepSpec())


def _average_row(series) -> list:
    """The ``average`` row over per-column fraction lists, in percent."""
    return ["average"] + [100 * mean(values) if values else None
                          for values in series]


# ---------------------------------------------------------------------------
# Figures 6.1 / 6.2 — Interaction Set for Checkpointing sizes
# ---------------------------------------------------------------------------

def _ichk_parsec_rows(runner: Runner, p) -> list[list]:
    rows, fractions = [], []
    for app in p.apps:
        frac = runner.run(app, p.n_cores, Scheme.REBOUND).mean_ichk_fraction()
        fractions.append(frac)
        rows.append([app, 100.0, 100 * frac])
    rows.append(["average", 100.0,
                 100 * mean(fractions) if fractions else None])
    return rows


FIGURES["fig6_1"] = Figure(
    defaults=dict(n_cores=24, apps=PARSEC_APACHE),
    cli=lambda splash, parsec: {"n_cores": parsec},
    quick=dict(apps=PARSEC_APACHE[:2]),
    spec=lambda runner, p: SweepSpec.grid(app=p.apps, n_cores=p.n_cores,
                                          scheme=Scheme.REBOUND),
    reduce=_ichk_parsec_rows,
    title="Figure 6.1: mean ICHK size (% of processors), "
          "{n_cores}-processor PARSEC/Apache",
    columns=lambda p: [("app", LABEL), ("Global", PCT1),
                       ("Rebound", PCT1)],
    notes="paper: Rebound average ~40%; Blackscholes/Apache ~20%")


def _ichk_splash_rows(runner: Runner, p) -> list[list]:
    rows = []
    averages = {n: [] for n in p.sizes}
    for app in p.apps:
        row = [app]
        for n_cores in p.sizes:
            stats = runner.run(app, n_cores, Scheme.REBOUND)
            frac = stats.mean_ichk_fraction()
            averages[n_cores].append(frac)
            row.append(100 * frac)
        rows.append(row)
    rows.append(_average_row(averages[n] for n in p.sizes))
    return rows


FIGURES["fig6_2"] = Figure(
    defaults=dict(sizes=(32, 64), apps=SPLASH2),
    # Two distinct sizes whenever the machine has more than 4 cores.
    cli=lambda splash, parsec: {
        "sizes": (32 if splash > 32 else max(4, splash // 2), splash)},
    quick=dict(apps=SPLASH2[:3]),
    spec=lambda runner, p: SweepSpec.grid(app=p.apps, n_cores=list(p.sizes),
                                          scheme=Scheme.REBOUND),
    reduce=_ichk_splash_rows,
    title="Figure 6.2: mean ICHK size (% of processors), SPLASH-2",
    columns=lambda p: [("app", LABEL)] + [(f"{n}p Rebound", PCT1)
                                          for n in p.sizes],
    notes="paper: ~60% average; Ocean/Raytrace ~100%; "
          "32->64p grows only slightly")


# ---------------------------------------------------------------------------
# Figures 6.3 / 6.4 — error-free checkpointing overhead, barrier opt
# ---------------------------------------------------------------------------

def _overhead_spec(schemes, runner: Runner, p) -> SweepSpec:
    return SweepSpec.grid(app=p.apps, scheme=(*schemes, Scheme.NONE),
                          n_cores=p.n_cores)


def _overhead_rows(schemes, runner: Runner, p) -> list[list]:
    rows = []
    sums = {scheme: [] for scheme in schemes}
    for app in p.apps:
        row = [app]
        for scheme in schemes:
            overhead = runner.overhead(app, p.n_cores, scheme)
            sums[scheme].append(overhead)
            row.append(100 * overhead)
        rows.append(row)
    rows.append(_average_row(sums[s] for s in schemes))
    return rows


def _overhead_columns(schemes, p) -> list[tuple[str, str]]:
    return [("app", LABEL)] + [(s.value, PCT2) for s in schemes]


FIGURES["fig6_3"] = Figure(
    defaults=dict(apps=SPLASH2, n_cores=64, suite="SPLASH-2"),
    cli=_at_splash,
    quick=dict(apps=SPLASH2[:3]),
    spec=partial(_overhead_spec, OVERHEAD_SCHEMES),
    reduce=partial(_overhead_rows, OVERHEAD_SCHEMES),
    title="Figure 6.3: error-free checkpoint overhead, {suite} "
          "at {n_cores} processors",
    columns=partial(_overhead_columns, OVERHEAD_SCHEMES),
    notes="paper (SPLASH-2@64): Global ~15%, Global_DWB ~8%, "
          "Rebound_NoDWB ~7%, Rebound ~2%")

FIGURES["fig6_4"] = Figure(
    defaults=dict(apps=BARRIER_INTENSIVE, n_cores=64),
    cli=_at_splash,
    spec=partial(_overhead_spec, BARRIER_SCHEMES),
    reduce=partial(_overhead_rows, BARRIER_SCHEMES),
    title="Figure 6.4: barrier optimization, barrier-intensive apps "
          "at {n_cores} processors",
    columns=partial(_overhead_columns, BARRIER_SCHEMES),
    notes="paper: Barrier opt and delayed WBs have similar impact; "
          "combining them is not additive")


# ---------------------------------------------------------------------------
# Figure 6.5 — overhead breakdown
# ---------------------------------------------------------------------------

BREAKDOWN_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)
BREAKDOWN_CATEGORIES = ("WBDelay", "WBImbalanceDelay", "SyncDelay",
                        "IPCDelay")


def _breakdown_rows(runner: Runner, p) -> list[list]:
    rows = []
    for app in p.apps:
        n_cores = _suite_cores(app, p)
        global_total = None
        for scheme in BREAKDOWN_SCHEMES:
            breakdown = runner.run(app, n_cores, scheme).breakdown()
            total = sum(breakdown.values())
            if scheme is Scheme.GLOBAL:
                global_total = total or 1.0
            rows.append([app, scheme.value]
                        + [100 * breakdown[category] / global_total
                           for category in BREAKDOWN_CATEGORIES]
                        + [100 * total / global_total])
    return rows


FIGURES["fig6_5"] = Figure(
    defaults=dict(apps=ALL_APPS, splash_cores=64, parsec_cores=24),
    cli=_per_suite,
    quick=dict(apps=ALL_APPS[:3]),
    spec=partial(_per_suite_spec, BREAKDOWN_SCHEMES),
    reduce=_breakdown_rows,
    title="Figure 6.5: overhead breakdown (normalized to Global = 100%)",
    columns=lambda p: [("app", LABEL), ("scheme", LABEL)] + [
        (name, PCT1) for name in (*BREAKDOWN_CATEGORIES, "total")],
    notes="paper: Global/Rebound_NoDWB dominated by WBDelay+"
          "WBImbalance; Rebound by IPCDelay; SyncDelay minor")


# ---------------------------------------------------------------------------
# Figure 6.6 — scalability (overhead, energy, recovery latency)
# ---------------------------------------------------------------------------

SCALABILITY_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)


def _recovery_fault_at(runner: Runner, n_cores: int) -> float:
    """Fault-injection time of the Fig 6.6 recovery runs: late in the
    run but comfortably before it ends, whatever ``--intervals`` says
    (shared by the figure's spec and reducer, so the planned keys are
    exactly the keys it requests).  At the default 3-interval length
    this is the historical 2.6 intervals; shorter runs (e.g.
    ``--quick``'s 2 intervals) pull the fault in so its detection still
    lands inside the run instead of being silently dropped."""
    fraction = min(2.6, max(0.6, runner.intervals - 0.4))
    return fraction * _configured_interval(runner, n_cores)


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


def _scalability_spec(runner: Runner, p) -> SweepSpec:
    # Recovery latency averages a representative subset of the apps
    # (the first five) to bound the fault-run count.
    spec = SweepSpec()
    for n_cores in p.sizes:
        spec += SweepSpec.grid(
            n_cores=n_cores, scheme=(*SCALABILITY_SCHEMES, Scheme.NONE),
            app=p.apps)
        spec += SweepSpec.grid(
            n_cores=n_cores, scheme=SCALABILITY_SCHEMES, app=p.apps[:5],
            fault_at=_recovery_fault_at(runner, n_cores))
    return spec


def _scalability_rows(runner: Runner, p) -> list[list]:
    recovery_apps = p.apps[:5]
    rows = []
    for n_cores in p.sizes:
        for scheme in SCALABILITY_SCHEMES:
            overheads, energy_increases, recoveries = [], [], []
            for app in p.apps:
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
            rows.append([n_cores, scheme.value, 100 * mean(overheads),
                         100 * mean(energy_increases),
                         mean(recoveries) if recoveries else None])
    return rows


FIGURES["fig6_6"] = Figure(
    defaults=dict(apps=SPLASH2, sizes=(16, 32, 64)),
    cli=lambda splash, parsec: {"sizes": tuple(sorted(
        {max(4, splash // 4), max(4, splash // 2), splash}))},
    quick=dict(apps=SPLASH2[:3]),
    spec=_scalability_spec,
    reduce=_scalability_rows,
    title="Figure 6.6: scalability with processor count (SPLASH-2 average)",
    columns=lambda p: [("cores", LABEL), ("scheme", LABEL),
                       ("ckpt overhead", PCT2), ("energy increase", PCT2),
                       ("recovery latency (cycles)", CYCLES)],
    notes="paper: Global grows steeply with cores on all three "
          "metrics; Rebound stays nearly flat; Rebound recovery > "
          "Rebound_NoDWB (one extra interval) but << Global")


# ---------------------------------------------------------------------------
# Figure 6.7 — output I/O
#
# One processor initiates a checkpoint every half interval (as if
# performing output I/O); the figure reports the resulting machine-wide
# effective checkpoint interval, relative to the configured one.
# ---------------------------------------------------------------------------

IO_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND)


def _io_every(runner: Runner, n_cores: int) -> int:
    """Fig 6.7's output-I/O period: half the configured interval."""
    return _configured_interval(runner, n_cores) // 2


def _io_rows(runner: Runner, p) -> list[list]:
    io_every = _io_every(runner, p.n_cores)
    rows = []
    ratios = {scheme: [] for scheme in IO_SCHEMES}
    for app in p.apps:
        row = [app]
        for scheme in IO_SCHEMES:
            stats = runner.run(app, p.n_cores, scheme, io_every=io_every)
            baseline = runner.run(app, p.n_cores, scheme)
            effective = stats.mean_effective_ckpt_interval()
            reference = baseline.mean_effective_ckpt_interval()
            ratio = effective / reference if reference else 0.0
            ratios[scheme].append(ratio)
            row.append(100 * ratio)
        rows.append(row)
    rows.append(_average_row(ratios[s] for s in IO_SCHEMES))
    return rows


FIGURES["fig6_7"] = Figure(
    defaults=dict(apps=LOW_ICHK, n_cores=64),
    cli=_at_splash,
    quick=dict(apps=["blackscholes"]),
    spec=lambda runner, p: SweepSpec.grid(
        app=p.apps, scheme=IO_SCHEMES,
        io_every=[_io_every(runner, p.n_cores), None], n_cores=p.n_cores),
    reduce=_io_rows,
    title="Figure 6.7: effective checkpoint interval under output I/O "
          "(% of configured interval), {n_cores} processors",
    columns=lambda p: [("app", LABEL), ("Global-I/O", PCT0),
                       ("Rebound-I/O", PCT0)],
    notes="paper: Global-I/O collapses to ~50% (2.5M of 5M cycles); "
          "Rebound-I/O stays above ~80% (4M of 5M)")


# ---------------------------------------------------------------------------
# Figure 6.8 — power
# ---------------------------------------------------------------------------

POWER_SCHEMES = (Scheme.GLOBAL, Scheme.REBOUND_NODWB, Scheme.REBOUND)


def _power_rows(runner: Runner, p) -> list[list]:
    powers = {}
    ed2s = {}
    for scheme in POWER_SCHEMES:
        per_app_power, per_app_ed2 = [], []
        for app in p.apps:
            report = energy_of_stats(runner.run(app, p.n_cores, scheme))
            per_app_power.append(report.power_w)
            per_app_ed2.append(ed2(report))
        powers[scheme] = mean(per_app_power)
        ed2s[scheme] = mean(per_app_ed2)
    base_power = powers[Scheme.GLOBAL] or 1.0
    base_ed2 = ed2s[Scheme.GLOBAL] or 1.0
    return [[scheme.value, powers[scheme],
             100 * (powers[scheme] / base_power - 1),
             100 * (ed2s[scheme] / base_ed2 - 1)]
            for scheme in POWER_SCHEMES]


FIGURES["fig6_8"] = Figure(
    defaults=dict(apps=SPLASH2, n_cores=64),
    cli=_at_splash,
    quick=dict(apps=SPLASH2[:3]),
    spec=lambda runner, p: SweepSpec.grid(scheme=POWER_SCHEMES, app=p.apps,
                                          n_cores=p.n_cores),
    reduce=_power_rows,
    title="Figure 6.8: estimated power, SPLASH-2 average at {n_cores} "
          "processors",
    columns=lambda p: [("scheme", LABEL), ("power", "{:.2f} W"),
                       ("vs Global", "{:+.1f}%"),
                       ("ED^2 vs Global", "{:+.1f}%")],
    notes="paper: Rebound_NoDWB +2% and Rebound +4% power vs Global "
          "(1.3% structures); Rebound ED^2 -27%")


# ---------------------------------------------------------------------------
# Figure 6.9 (extension) — Monte Carlo fault campaigns
#
# For every (processor count, variant) cell, ``n_seeds`` seeded
# multi-fault runs per app are simulated (faults drawn from an
# exponential model, any core, including mid-checkpoint and
# back-to-back) and aggregated into availability, work-lost and
# IREC/recovery-latency distributions.  Plans are seed-deterministic,
# so every run is cacheable and parallelizable through the engine.
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


def _campaign_spec(runner: Runner, p) -> SweepSpec:
    return sum((SweepSpec.grid(
        n_cores=n_cores, scheme=variant.scheme, cluster=variant.cluster,
        app=p.apps,
        fault_plan=_campaign_plans(runner, n_cores, p.n_seeds, p.base_seed,
                                   p.mttf_intervals))
        for n_cores in p.sizes for variant in p.variants), SweepSpec())


def _campaign_rows(runner: Runner, p) -> list[list]:
    rows = []
    for n_cores in p.sizes:
        plans = _campaign_plans(runner, n_cores, p.n_seeds, p.base_seed,
                                p.mttf_intervals)
        for variant in p.variants:
            runs = [runner.run(app, n_cores, variant.scheme,
                               fault_plan=plan, cluster=variant.cluster)
                    for app in p.apps for plan in plans]
            summary = summarize_campaign(runs)
            rows.append([
                n_cores, variant.label,
                100 * summary.mean_availability,
                100 * summary.mean_effective_availability,
                summary.mean_work_lost,
                summary.mean_rollbacks_per_run,
                summary.mean_irec_size,
                (summary.recovery_latency_percentile(95)
                 if summary.recovery_latencies else None),
                (summary.delivered_faults, summary.injected_faults),
            ])
    return rows


FIGURES["fig6_9"] = Figure(
    defaults=dict(apps=CAMPAIGN_APPS, sizes=(8, 16),
                  variants=CAMPAIGN_VARIANTS, n_seeds=3, base_seed=100,
                  mttf_intervals=1.0),
    cli=lambda splash, parsec: {
        "sizes": (max(4, splash // 8), max(8, splash // 4))},
    quick=dict(apps=["blackscholes"], sizes=(4, 8), n_seeds=2),
    spec=_campaign_spec,
    reduce=_campaign_rows,
    title="Figure 6.9 (ext): fault campaign, MTTF = {mttf_intervals:g} "
          "interval(s), {n_seeds} seed(s)/app, apps={app_names}",
    columns=lambda p: [
        ("cores", LABEL), ("variant", LABEL), ("availability", PCT2),
        ("eff avail", PCT2), ("work lost (cyc)", CYCLES),
        ("rollbacks/run", "{:.1f}"), ("mean |IREC|", "{:.1f}"),
        ("p95 recovery (cyc)", CYCLES), ("delivered", FAULTS)],
    notes="extension: Rebound rolls back only the IREC, so its "
          "availability stays above Global's and its work-lost "
          "stays flat as the machine grows; cluster mode trades "
          "toward Global.  'eff avail' additionally charges the "
          "checkpointing work itself (useful cycles / total), so "
          "the Rebound-vs-Global gap it shows is the full one.")


# ---------------------------------------------------------------------------
# L sensitivity (extension) — detection latency vs recovery cost (Sec 3.2)
#
# The fault process is held fixed (same seeded plans) while the
# machine's detection latency sweeps across ``l_fractions`` of a
# checkpoint interval, via a ``RunKey`` config override — the knob
# reaches the engine without any engine code knowing about it.  A
# larger L delays detection, so more speculative work piles up past
# the fault and more log entries must be undone: mean recovery latency
# is non-decreasing in L and availability erodes.
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


def _l_sensitivity_rows(runner: Runner, p) -> list[list]:
    plans = _campaign_plans(runner, p.n_cores, p.n_seeds, p.base_seed,
                            p.mttf_intervals)
    interval = _configured_interval(runner, p.n_cores)
    rows = []
    for latency in _l_values(runner, p.n_cores, p.l_fractions):
        for scheme in L_SENSITIVITY_SCHEMES:
            runs = [runner.run(app, p.n_cores, scheme, fault_plan=plan,
                               overrides={"detection_latency": latency})
                    for app in p.apps for plan in plans]
            summary = summarize_campaign(runs)
            recovered = bool(summary.recovery_latencies)
            rows.append([
                latency, latency / interval, scheme.value,
                summary.mean_recovery_latency if recovered else None,
                (summary.recovery_latency_percentile(95)
                 if recovered else None),
                100 * summary.mean_availability,
                100 * summary.mean_effective_availability,
                summary.mean_work_lost,
                (summary.delivered_faults, summary.injected_faults),
            ])
    return rows


FIGURES["fig_l_sensitivity"] = Figure(
    defaults=dict(apps=CAMPAIGN_APPS, n_cores=8, n_seeds=2, base_seed=100,
                  mttf_intervals=1.0, l_fractions=L_FRACTIONS),
    cli=lambda splash, parsec: {"n_cores": max(4, splash // 8)},
    quick=dict(apps=["blackscholes"], n_cores=4),
    spec=lambda runner, p: SweepSpec.grid(
        n_cores=p.n_cores,
        detection_latency=_l_values(runner, p.n_cores, p.l_fractions),
        scheme=list(L_SENSITIVITY_SCHEMES), app=p.apps,
        fault_plan=_campaign_plans(runner, p.n_cores, p.n_seeds,
                                   p.base_seed, p.mttf_intervals)),
    reduce=_l_sensitivity_rows,
    title="L sensitivity (ext): detection latency sweep, {n_cores} "
          "processors, MTTF = {mttf_intervals:g} interval(s), "
          "apps={app_names}",
    columns=lambda p: [
        ("L (cyc)", "{:,}"), ("L/interval", "{:.3g}"), ("scheme", LABEL),
        ("mean recovery (cyc)", CYCLES), ("p95 recovery (cyc)", CYCLES),
        ("availability", PCT2), ("eff avail", PCT2),
        ("work lost (cyc)", CYCLES), ("delivered", FAULTS)],
    notes="paper Sec 3.2: L only bounds how fresh a restorable "
          "checkpoint can be; recovery latency grows with L while "
          "Rebound's localized rollback keeps availability above "
          "Global's at every L")


# ---------------------------------------------------------------------------
# Table 6.1 — characterization
# ---------------------------------------------------------------------------

def _characterization_rows(runner: Runner, p) -> list[list]:
    rows = []
    for app in p.apps:
        stats = runner.run(app, _suite_cores(app, p), Scheme.REBOUND)
        log_mb = stats.max_interval_log_bytes / 1e6
        # Rescale the log volume to the paper's 4M-instruction interval.
        scale = 4_000_000 / stats.config.checkpoint_interval
        rows.append([app, stats.ichk_fp_increase_percent(), log_mb,
                     log_mb * scale, stats.dep_message_percent()])
    return rows + [["average"] + [mean(column)
                                  for column in list(zip(*rows))[1:]]]


FIGURES["table6_1"] = Figure(
    defaults=dict(apps=ALL_APPS, splash_cores=64, parsec_cores=24),
    cli=_per_suite,
    quick=dict(apps=ALL_APPS[:4]),
    spec=partial(_per_suite_spec, Scheme.REBOUND),
    reduce=_characterization_rows,
    title="Table 6.1: Rebound characterization",
    columns=lambda p: [
        ("app", LABEL), ("ICHK FP increase", PCT1),
        ("log MB/interval (scaled)", "{:.3f}"),
        ("log MB/interval (paper-rescaled)", "{:.1f}"),
        ("extra coherence msgs", PCT1)],
    notes="paper: FP increase 2.0% avg; log 7.2 MB avg; extra "
          "messages 4.2% avg")


# perfbench/ calls these four by name with the old drivers' positional
# signatures, and its tracer wraps the two planners.
plan_fig6_3, fig6_3_overhead = FIGURES["fig6_3"].plan, FIGURES["fig6_3"].run
plan_fig6_9, fig6_9_campaign = FIGURES["fig6_9"].plan, FIGURES["fig6_9"].run


def plan_experiment(name: str, runner: Runner, **params) -> list[RunKey]:
    """Enumerate the runs experiment ``name`` needs (without running)."""
    return FIGURES[name].plan(runner, **params)


def run_experiment(name: str, runner: Runner | None = None,
                   **params) -> ExperimentResult:
    """Run one named experiment (see :data:`FIGURES`)."""
    return FIGURES[name].run(runner or Runner(), **params)
