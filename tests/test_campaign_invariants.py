"""Differential campaign invariant suite (tests/invariants.py applied).

Instead of pinning spot values, every run in a scheme x faults x
io-injection x cluster matrix is audited against the reusable
accounting invariants: the four cycle buckets partition runtime x
n_cores exactly, effective availability never exceeds the fault-only
metric, every injected fault is delivered-or-recorded, degradation is
monotone in fault pressure and detection latency, and compiled-vs-tuple
/ cached-vs-fresh twins agree bucket for bucket.

The pinned headline (ISSUE 5 acceptance): under the default fig6_9
campaign configuration, Rebound's *effective* availability — the metric
that also charges the checkpointing work itself — exceeds Global's at
every core count.
"""

import pytest

from repro.core.factory import registered_schemes, resolve_scheme
from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.experiments import (
    CAMPAIGN_APPS,
    CAMPAIGN_VARIANTS,
    _campaign_plans,
    plan_experiment,
)
from repro.harness.runner import Runner
from repro.params import MachineConfig, Scheme
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.sim.stats import summarize_campaign
from repro.workloads import get_workload
from tests.conftest import make_machine, tiny_config
from tests.invariants import (
    assert_bucket_parity,
    assert_monotone,
    assert_run_invariants,
)
from tests.test_trace_ir import tuple_twin
from repro.trace import COMPUTE, END, STORE

SCALE = 300
INTERVALS = 1.5

#: The configured checkpoint interval at this test scale (cycles).
INTERVAL = MachineConfig.scaled(n_cores=4, scheme=Scheme.NONE,
                                scale=SCALE).checkpoint_interval

ALL_SCHEMES = registered_schemes()
FAULTABLE_SCHEMES = [name for name in ALL_SCHEMES if name != "none"]


@pytest.fixture(scope="module")
def runner() -> Runner:
    """One memoizing runner for the whole module (baselines shared)."""
    return Runner(scale=SCALE, intervals=INTERVALS)


def campaign_plan(seed: int = 11, pressure: float = 0.5) -> FaultPlan:
    """A deterministic multi-fault plan at ``pressure`` faults per
    interval (any core, horizon past the nominal end so undelivered
    faults occur too)."""
    return FaultPlan.from_mttf(seed=seed, mttf=INTERVAL / pressure / 2,
                               horizon=2.0 * INTERVAL, n_cores=4)


# ---------------------------------------------------------------------------
# the differential matrix
# ---------------------------------------------------------------------------

class TestDifferentialMatrix:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_fault_free_every_scheme(self, runner, name):
        stats = runner.run("blackscholes", 4, resolve_scheme(name))
        assert_run_invariants(stats)

    @pytest.mark.parametrize("name", FAULTABLE_SCHEMES)
    def test_campaign_every_scheme(self, runner, name):
        stats = runner.run("ocean", 4, resolve_scheme(name),
                           fault_plan=campaign_plan())
        assert_run_invariants(stats)
        assert stats.injected_faults > 0

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND])
    def test_campaign_with_io_injection(self, runner, scheme):
        stats = runner.run("blackscholes", 4, scheme,
                           io_every=INTERVAL // 2,
                           fault_plan=campaign_plan(seed=12))
        assert_run_invariants(stats)
        assert any(e.kind == "io" for e in stats.checkpoints)

    @pytest.mark.parametrize("cluster", [1, 2, 4])
    def test_campaign_cluster_mode(self, runner, cluster):
        stats = runner.run("ocean", 4, Scheme.REBOUND,
                           fault_plan=campaign_plan(seed=13),
                           cluster=cluster)
        assert_run_invariants(stats)

    def test_fault_free_overhead_fills_the_gap(self, runner):
        """Without faults the partition is useful + overhead only, and
        a checkpointing scheme's effective availability is strictly
        below 1 while the fault-only metric still reads 1."""
        stats = runner.run("ocean", 4, Scheme.GLOBAL)
        buckets = stats.cycle_buckets()
        assert buckets["checkpoint_overhead"] > 0.0
        assert stats.availability() == 1.0
        assert stats.effective_availability() < 1.0


# ---------------------------------------------------------------------------
# representation parity: compiled-vs-tuple, cached-vs-fresh
# ---------------------------------------------------------------------------

class TestBucketParity:
    @pytest.mark.parametrize("name", FAULTABLE_SCHEMES)
    def test_compiled_vs_tuple_campaign(self, name):
        scheme = resolve_scheme(name)
        config = MachineConfig.scaled(n_cores=4, scheme=scheme,
                                      scale=SCALE)
        spec = get_workload("ocean", 4, config, intervals=INTERVALS)
        plan = campaign_plan(seed=14)
        a = Machine(config, spec, faults=plan).run()
        b = Machine(config, tuple_twin(spec), faults=plan).run()
        assert_bucket_parity(a, b, what="compiled/tuple traces")
        assert a == b
        assert_run_invariants(a)

    def test_cached_vs_fresh_campaign(self, tmp_path):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, INTERVALS, 1,
                     SCALE, fault_plan=campaign_plan(seed=15))
        fresh = execute_run(key)
        writer = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        writer.run(key)
        reader = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        cached = reader.run(key)
        assert reader.disk_hits == 1
        assert_bucket_parity(fresh, cached, what="cached/fresh results")
        assert_run_invariants(cached)


# ---------------------------------------------------------------------------
# monotone degradation
# ---------------------------------------------------------------------------

class TestMonotoneDegradation:
    #: Prefix-nested fault sets: deterministic rising fault pressure
    #: (the noise-free form of "MTTF shrinks").
    NESTED_FAULTS = [(0.4 * INTERVAL, 0), (0.7 * INTERVAL, 1),
                     (1.0 * INTERVAL, 2), (1.2 * INTERVAL, 0)]

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND])
    def test_more_faults_never_improve_availability(self, runner, scheme):
        effectives, raws = [], []
        for k in range(len(self.NESTED_FAULTS) + 1):
            plan = FaultPlan(tuple(self.NESTED_FAULTS[:k]))
            stats = runner.run("ocean", 4, scheme,
                               fault_plan=plan if k else None)
            assert_run_invariants(stats)
            effectives.append(stats.effective_availability())
            raws.append(stats.availability())
        assert_monotone(effectives, f"{scheme.value} effective "
                        f"availability vs nested fault plans",
                        decreasing=True)
        assert_monotone(raws, f"{scheme.value} availability vs nested "
                        f"fault plans", decreasing=True)

    def test_mttf_shrink_degrades_campaign(self, runner):
        """Averaged over seeds, a 16x harsher fault process can only
        lower the campaign's effective availability."""
        means = []
        for mttf_intervals in (8.0, 0.5):
            runs = [runner.run("blackscholes", 4, Scheme.REBOUND,
                               fault_plan=FaultPlan.from_mttf(
                                   seed=s, mttf=mttf_intervals * INTERVAL,
                                   horizon=1.5 * INTERVAL, n_cores=4))
                    for s in (21, 22, 23)]
            for stats in runs:
                assert_run_invariants(stats)
            means.append(
                summarize_campaign(runs).mean_effective_availability)
        assert_monotone(means, "effective availability vs shrinking MTTF",
                        decreasing=True)

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND])
    def test_larger_L_degrades_recovery(self, runner, scheme):
        """Same fault plan, growing detection latency L: recovery
        latency is non-decreasing and effective availability is
        non-increasing (Sec 3.2, now with the useful-work metric)."""
        plan = FaultPlan.single(1.3 * INTERVAL)
        recoveries, effectives = [], []
        for fraction in (0.02, 0.125, 0.5):
            latency = max(1, int(fraction * INTERVAL))
            stats = runner.run("blackscholes", 4, scheme, fault_plan=plan,
                               overrides={"detection_latency": latency})
            assert_run_invariants(stats)
            assert stats.rollbacks, "fault must be delivered at every L"
            recoveries.append(stats.mean_recovery_latency())
            effectives.append(stats.effective_availability())
        assert_monotone(recoveries,
                        f"{scheme.value} recovery latency vs L")
        assert_monotone(effectives,
                        f"{scheme.value} effective availability vs L",
                        decreasing=True)


# ---------------------------------------------------------------------------
# PR 2 fault edge cases, restated as invariants
# ---------------------------------------------------------------------------

class TestFaultEdgeInvariants:
    def test_undelivered_fault_never_a_zero_cycle_recovery(self):
        machine = make_machine([[(COMPUTE, 1000), (END,)]],
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(50_000.0, 0)])
        stats = machine.run()
        assert stats.undelivered_faults == 1
        assert_run_invariants(stats)   # includes the refusal check

    def test_back_to_back_faults_never_double_count(self):
        traces = [
            [(STORE, 1), (COMPUTE, 9000), (END,)],
            [(COMPUTE, 9500), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(2500.0, 0), (2600.0, 0)])
        stats = machine.run()
        assert len(stats.rollbacks) == 2
        # The partition + per-core bounds in here are exactly the
        # "never double-count work-lost/recovery" guarantees.
        assert_run_invariants(stats)

    def test_mid_drain_fault_accounted(self):
        traces = [
            [(STORE, 1), (COMPUTE, 1990), (STORE, 2), (COMPUTE, 7000),
             (END,)],
            [(STORE, 9), (COMPUTE, 9000), (END,)],
        ]
        machine = make_machine(traces,
                               config=tiny_config(2, Scheme.REBOUND),
                               faults=[(2100.0, 0)])
        stats = machine.run()
        assert stats.rollbacks
        assert_run_invariants(stats)


# ---------------------------------------------------------------------------
# the pinned fig6_9 acceptance criterion
# ---------------------------------------------------------------------------

class TestFig69EffectiveAvailability:
    def test_default_campaign_partition_and_scheme_gap(self):
        """Default fig6_9 campaign config (sizes, variants, apps and
        seeds) at test scale: the partition holds exactly on every run,
        and Rebound's effective availability strictly exceeds Global's
        at every core count."""
        runner = Runner(scale=SCALE, intervals=INTERVALS,
                        engine=ExperimentEngine(jobs=2,
                                                use_disk_cache=False))
        runner.prefetch(plan_experiment("fig6_9", runner))
        sizes = (8, 16)
        effective = {}
        overheads = {}
        for n_cores in sizes:
            plans = _campaign_plans(runner, n_cores, n_seeds=3,
                                    base_seed=100, mttf_intervals=1.0)
            for variant in CAMPAIGN_VARIANTS:
                runs = [runner.run(app, n_cores, variant.scheme,
                                   fault_plan=plan,
                                   cluster=variant.cluster)
                        for app in CAMPAIGN_APPS for plan in plans]
                for stats in runs:
                    assert_run_invariants(stats)
                summary = summarize_campaign(runs)
                effective[(n_cores, variant.label)] = \
                    summary.mean_effective_availability
                overheads[(n_cores, variant.label)] = \
                    summary.mean_checkpoint_overhead
        for n_cores in sizes:
            assert effective[(n_cores, "rebound")] > \
                effective[(n_cores, "global")], \
                f"Rebound effective availability must beat Global at " \
                f"{n_cores} cores: {effective}"
            # The gap comes from where the paper says it does: Global
            # pays burst writebacks machine-wide every interval, Rebound
            # only its interaction sets.
            assert overheads[(n_cores, "rebound")] < \
                overheads[(n_cores, "global")], \
                f"Rebound must spend fewer checkpoint-overhead cycles " \
                f"than Global at {n_cores} cores: {overheads}"
