"""Differential suite for the vectorized multi-replica campaign kernel.

``repro.sim.vector.run_replica_batch`` advances N fault replicas of one
workload through a shared fault-free leader machine, forking each
replica out at its first fault-detection time.  Nothing about that is
allowed to be observable: every replica's ``SimStats`` — runtime, the
exact cycle-bucket partition, per-core stats, checkpoint/rollback event
lists, fault accounting, message and log counters — must be
bit-identical to a scalar ``Machine.run`` of the same (config,
workload, faults), for every registered scheme, with fault campaigns,
output-I/O injection and cluster mode in the mix.  The engine-level
grouping (``ExperimentEngine`` batching same-workload RunKeys) is held
to the same standard: every batched result must equal the scalar
reference ``execute_run`` of its key.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.experiments import _campaign_plans
from repro.harness.runner import Runner
from repro.params import MachineConfig, Scheme
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.sim.stats import CampaignSummary, percentile
from repro.sim.vector import run_replica_batch
from repro.workloads import get_workload, inject_output_io
from tests.invariants import assert_bucket_parity, assert_run_invariants

SCALE = 150
INTERVALS = 1.8
APP = "blackscholes"


def _config(n_cores, scheme, cluster=1):
    return MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                scale=SCALE, dep_cluster_size=cluster)


def _spec(n_cores, config, io_every=None):
    spec = get_workload(APP, n_cores, config, intervals=INTERVALS, seed=1)
    if io_every is not None:
        spec = inject_output_io(spec=spec, pid=0,
                                every_instructions=io_every)
    return spec


def _scalar(config, spec, faults):
    return Machine(config, spec, faults=list(faults) or None).run()


def assert_stats_equal(a, b):
    """Exact equality on everything a SimStats reports."""
    assert a.runtime == b.runtime
    assert a.total_instructions == b.total_instructions
    assert a.cores == b.cores
    assert a.cycle_buckets() == b.cycle_buckets()
    assert a.checkpoints == b.checkpoints
    assert a.rollbacks == b.rollbacks
    assert a.injected_faults == b.injected_faults
    assert a.undelivered_faults == b.undelivered_faults
    assert a.availability() == b.availability()
    assert a.effective_availability() == b.effective_availability()
    assert a.base_messages == b.base_messages
    assert a.dep_messages == b.dep_messages
    assert a.log_bytes == b.log_bytes
    assert_bucket_parity(a, b, what="scalar vs vector")


def _campaign(config):
    """Three replicas: an early fault, a two-fault sequence, fault-free."""
    interval = config.checkpoint_interval
    return [
        [(0.9 * interval, 0)],
        [(1.1 * interval, 2), (1.45 * interval, 1)],
        [],
    ]


#: (scheme, n_cores, io_every-in-intervals, cluster, with-faults) — every
#: registered scheme appears; NONE has no recovery support, so its
#: replicas must be fault-free (a faulty NONE run raises in the scalar
#: kernel too).
MATRIX = [
    (Scheme.REBOUND, 8, None, 1, True),
    (Scheme.REBOUND, 4, 0.5, 1, True),           # output-I/O injection
    (Scheme.REBOUND, 8, None, 4, True),          # cluster mode (Ch. 8)
    (Scheme.GLOBAL, 8, None, 1, True),
    (Scheme.GLOBAL_DWB, 4, None, 1, True),
    (Scheme.REBOUND_NODWB, 4, 0.5, 1, True),
    (Scheme.REBOUND_BARR, 4, None, 1, True),
    (Scheme.REBOUND_NODWB_BARR, 4, None, 1, True),
    (Scheme.NONE, 4, None, 1, False),
]


@pytest.mark.parametrize("scheme,n_cores,io_frac,cluster,with_faults",
                         MATRIX,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_batch_matches_scalar(scheme, n_cores, io_frac, cluster,
                              with_faults):
    config = _config(n_cores, scheme, cluster)
    io_every = int(io_frac * config.checkpoint_interval) \
        if io_frac is not None else None
    spec = _spec(n_cores, config, io_every)
    fault_lists = _campaign(config) if with_faults else [[], []]
    result = run_replica_batch(config, spec, fault_lists)
    assert result.report.width == len(fault_lists)
    assert result.report.spilled + result.report.leader_served \
        == len(fault_lists)
    assert result.report.shared_prefix_cycles >= 0.0
    for stats, faults in zip(result.stats, fault_lists):
        assert_run_invariants(stats)
        assert_stats_equal(_scalar(config, spec, faults), stats)


def test_leader_served_replicas_do_not_alias():
    """Two fault-free replicas in one batch get equal but *distinct*
    SimStats — the engine memoizes per key, so shared mutable stats
    would let one figure's post-processing corrupt another's."""
    config = _config(4, Scheme.REBOUND)
    spec = _spec(4, config)
    result = run_replica_batch(config, spec, [[], []])
    a, b = result.stats
    assert a is not b
    assert a.cores is not b.cores
    assert_stats_equal(a, b)
    assert result.report.leader_served == 2
    assert result.report.spilled == 0


def _spill(config, spec, fault_lists, spill_at):
    """The executor's fork path at arbitrary points, driven through the
    ``Machine`` primitives it relies on: one fault-free leader pauses at
    each replica's spill time (ascending), forks, and the fork is armed
    with that replica's faults and run out; the leader then finishes as
    the fault-free run.  Returns (per-replica stats, leader stats)."""
    leader = Machine(config, spec)
    leader.start()
    results = [None] * len(fault_lists)
    for index in sorted(range(len(fault_lists)), key=spill_at.__getitem__):
        if not leader.finished:
            leader.advance(pause_at=spill_at[index])
        replica = leader.fork()
        replica.install_faults(list(fault_lists[index]))
        replica.advance()
        results[index] = replica.finalize()
    if not leader.finished:
        leader.advance()
    return results, leader.finalize()


def _first_detection(config, faults):
    """A spill may not pass the replica's first fault detection: the
    fault would already have fired in the fault-free leader."""
    return min((at for at, _pid in faults), default=float("inf")) \
        + config.detection_latency


def test_forced_spill_is_unobservable():
    """A replica forked off the leader early (mid-interval, long before
    any fault is due) must still report identical stats, and so must
    the leader it left."""
    config = _config(4, Scheme.REBOUND)
    spec = _spec(4, config)
    faults = [(1.2 * config.checkpoint_interval, 1)]
    spill_at = 0.37 * config.checkpoint_interval
    assert spill_at < _first_detection(config, faults)
    (forked,), leader = _spill(config, spec, [faults], [spill_at])
    assert_stats_equal(_scalar(config, spec, faults), forked)
    assert_stats_equal(_scalar(config, spec, []), leader)


def test_early_divergence_forks():
    """A replica whose fault is detected within the first fifth of the
    run still rides the leader and forks there (no standalone run): its
    stats equal its standalone run's, and so do its siblings'."""
    config = _config(4, Scheme.REBOUND)
    spec = _spec(4, config)
    run_length = max(trace.instruction_count() for trace in spec.traces)
    early = max(1.0, 0.1 * run_length - config.detection_latency)
    assert early + config.detection_latency < 0.2 * run_length
    faults = [(early, 1)]
    late = [(1.2 * config.checkpoint_interval, 0)]

    result = run_replica_batch(config, spec, [faults, late, []])
    assert result.report.direct_runs == 0
    assert result.report.spilled == 2
    assert result.report.leader_served == 1
    assert result.report.divergence[0] < 0.2 * run_length
    assert_stats_equal(_scalar(config, spec, faults), result.stats[0])
    assert_stats_equal(_scalar(config, spec, late), result.stats[1])
    assert_stats_equal(_scalar(config, spec, []), result.stats[2])


# -- hypothesis: arbitrary spill points preserve parity ---------------------

_HYP_CONFIG = _config(4, Scheme.REBOUND)
_HYP_SPEC = None
_HYP_SCALAR = {}


def _hyp_fixture():
    """Build the reference workload and scalar runs once — hypothesis
    only varies *where* replicas leave the leader, which must never
    change the results."""
    global _HYP_SPEC
    if _HYP_SPEC is None:
        _HYP_SPEC = _spec(4, _HYP_CONFIG)
        for i, faults in enumerate(_campaign(_HYP_CONFIG)):
            _HYP_SCALAR[i] = _scalar(_HYP_CONFIG, _HYP_SPEC, faults)
    return _HYP_SPEC


@given(st.lists(st.floats(0.0, INTERVALS), min_size=3, max_size=3))
@settings(max_examples=12, deadline=None)
def test_random_forced_spills_preserve_parity(spill_fractions):
    spec = _hyp_fixture()
    interval = _HYP_CONFIG.checkpoint_interval
    fault_lists = _campaign(_HYP_CONFIG)
    spill_at = [min(fraction * interval,
                    _first_detection(_HYP_CONFIG, faults))
                for fraction, faults in zip(spill_fractions, fault_lists)]
    results, leader = _spill(_HYP_CONFIG, spec, fault_lists, spill_at)
    for i, stats in enumerate(results):
        assert_run_invariants(stats)
        assert_stats_equal(_HYP_SCALAR[i], stats)
    assert_stats_equal(_HYP_SCALAR[2], leader)      # the fault-free run


# -- engine-level batching --------------------------------------------------

def _engine_keys(n_plans=3):
    keys = [RunKey(app=APP, n_cores=4, scheme=Scheme.REBOUND,
                   intervals=INTERVALS, seed=1, scale=SCALE,
                   fault_plan=FaultPlan(faults=tuple(faults)))
            for faults in _campaign(_config(4, Scheme.REBOUND))[:n_plans]
            if faults]
    keys.append(RunKey(app=APP, n_cores=4, scheme=Scheme.REBOUND,
                       intervals=INTERVALS, seed=1, scale=SCALE))
    return keys


def test_engine_batches_match_scalar_engine():
    keys = _engine_keys()
    vec = ExperimentEngine(jobs=1, use_disk_cache=False)
    res_v = vec.run_many(keys)
    width = len(keys)
    for key in keys:
        assert_stats_equal(execute_run(key), res_v[key])
        assert vec.batch_width[key] == width
    # batched rows carry their width in the --profile table
    assert all(row[7] == width for row in vec.profile_rows())
    # memoization still returns the same objects on re-request
    again = vec.run_many(keys)
    assert all(again[key] is res_v[key] for key in keys)
    # replica batching is the only plan: the keyword takes no other value
    with pytest.raises(ValueError, match="vector=False"):
        ExperimentEngine(jobs=1, use_disk_cache=False, vector=False)


def test_harness_import_path_is_numpy_free():
    """The replica kernel and the harness are pure standard library:
    importing the CLI, the engine and the campaign service must not
    pull numpy in (its import dominated every worker's start-up)."""
    script = ("import sys\n"
              "import repro.harness, repro.harness.engine, "
              "repro.harness.service\n"
              "assert 'numpy' not in sys.modules, "
              "sorted(m for m in sys.modules if m.startswith('numpy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []) + sys.path)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# -- satellite micro-asserts ------------------------------------------------

def test_percentile_cache_matches_fresh_sort():
    """CampaignSummary sorts its latency distribution once; every
    percentile query must equal the sort-per-call reference, including
    after the distribution grows (cache invalidation)."""
    latencies = [310.0, 95.5, 512.25, 95.5, 1204.0, 87.0, 640.125]
    summary = CampaignSummary(recovery_latencies=list(latencies))
    for q in (0, 10, 25, 50, 75, 90, 95, 99, 100):
        assert summary.recovery_latency_percentile(q) \
            == percentile(latencies, q)
    summary.recovery_latencies.extend([42.0, 2048.5])
    grown = latencies + [42.0, 2048.5]
    for q in (0, 50, 99):
        assert summary.recovery_latency_percentile(q) \
            == percentile(grown, q)


def test_campaign_plans_are_shared_across_calls():
    """The seeded plans of one campaign cell are built once: repeated
    calls (fig6_9, fig_l, the invariant benchmarks) get the *same*
    frozen FaultPlan instances."""
    runner = Runner(scale=SCALE, intervals=INTERVALS)
    first = _campaign_plans(runner, 8, 3, 100, 1.0)
    second = _campaign_plans(runner, 8, 3, 100, 1.0)
    assert first == second
    assert all(a is b for a, b in zip(first, second))
    other = _campaign_plans(runner, 8, 3, 101, 1.0)
    assert other != first
