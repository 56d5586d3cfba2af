"""Prefix families: schemes that share a replica batch's leader.

NONE, Global and Global_DWB run the same machine until the first time
scheme code runs (the first checkpoint decision, an OUTPUT record, an
END), and so do Rebound_NoDWB and Rebound.  The engine therefore plans
one replica batch per family (``ExperimentEngine._batch_key``): the
leader holds at its first scheme return, and every member of another
scheme forks there, re-pointed at its own scheme
(``Machine.rebind_config``), or earlier at its own first fault.  Every
result must equal the member's standalone run.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import register_scheme, unregister_scheme
from repro.core.factory import prefix_family
from repro.core.global_scheme import GlobalScheme
from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    execute_batch,
    resolve_config,
)
from repro.params import MachineConfig, Scheme
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.sim.vector import run_replica_batch
from repro.workloads import get_workload, inject_output_io
from repro.trace import COMPUTE, END, OUTPUT, compile_trace
from repro.workloads.base import WorkloadSpec
from tests.conftest import barrier_spec, lock_spec, tiny_config
from tests.test_properties import random_workload

GLOBAL_FAMILY = (Scheme.GLOBAL, Scheme.GLOBAL_DWB, Scheme.NONE)
REBOUND_FAMILY = (Scheme.REBOUND_NODWB, Scheme.REBOUND)

#: (cores, scale, intervals): a 16-core and a 64-core machine.
SIZES = [(16, 150, 2.0), (64, 300, 2.0)]


def _key(app, size, scheme, fault=None, io_every=None):
    """A run; ``fault`` is the time of one fault on core 3, as a
    fraction of the time the leader first runs scheme code."""
    n_cores, scale, intervals = size
    plan = None
    if fault is not None:
        plan = FaultPlan.single(fault * _first_return(app, size, scheme), 3)
    return RunKey(app, n_cores, scheme, intervals, 1, scale,
                  io_every=io_every, fault_plan=plan)


def _first_return(app, size, scheme):
    """When a fault-free run of ``scheme``'s family leader first returns
    to scheme code."""
    key = RunKey(app, size[0], prefix_family(scheme), size[2], 1, size[1])
    config = resolve_config(key)
    machine = Machine(config, get_workload(app, size[0], config,
                                           intervals=size[2], seed=1))
    machine.start()
    machine.advance(until_scheme=True)
    assert machine.held
    return machine.now


def _standalone(keys):
    """Each key's own run, and the loop counters of all of them."""
    from repro.harness.engine import execute_run

    counters = Counter()
    results = []
    for key in keys:
        config = resolve_config(key)
        workload = get_workload(key.app, key.n_cores, config,
                                intervals=key.intervals, seed=key.seed)
        if key.io_every is not None:
            workload = inject_output_io(spec=workload, pid=0,
                                        every_instructions=key.io_every)
        machine = Machine(config, workload, faults=key.fault_list())
        results.append(machine.run())
        counters.update(machine.counters())
        assert results[-1] == execute_run(key)
    return results, counters


def _plan(keys):
    """The engine's tasks for ``keys``: one batch per ``_batch_key``."""
    return ExperimentEngine(jobs=1, use_disk_cache=False)._plan_tasks(keys)


def _batched(keys):
    """``keys`` as the engine runs them."""
    tasks = _plan(keys)
    counters = Counter()
    results = {}
    for task in tasks:
        for key, stats in zip(task, execute_batch(task, counters=counters)):
            results[key] = stats
    return [results[key] for key in keys], counters, len(tasks)


def _assert_family_matches(keys, n_tasks):
    batched, counters, tasks = _batched(keys)
    alone, alone_counters = _standalone(keys)
    assert tasks == n_tasks
    for key, got, want in zip(keys, batched, alone):
        assert got == want, key
        assert got.scheme is key.scheme
    records = sum(count for name, count in counters.items()
                  if name.startswith("records."))
    alone_records = sum(count for name, count in alone_counters.items()
                        if name.startswith("records."))
    # The shared prefixes ran once, and no fork calls post_op more
    # often than its own run does.
    assert records < alone_records
    assert counters["returns.post_op"] <= alone_counters["returns.post_op"]
    for key, stats in zip(keys, batched):
        assert len(stats.rollbacks) == len(key.fault_list() or ())
    return counters


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}p")
@pytest.mark.parametrize("app", ["ocean", "water_sp"])
def test_fault_free_families_match_standalone_runs(app, size):
    keys = [_key(app, size, scheme)
            for scheme in GLOBAL_FAMILY + REBOUND_FAMILY]
    counters = _assert_family_matches(keys, n_tasks=2)
    assert counters["variant_forks"] == 3


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}p")
@pytest.mark.parametrize("app", ["ocean", "water_sp"])
def test_faults_before_and_after_the_first_gate(app, size):
    """A fault detected before the leader's first scheme return forks
    at its own detection (a member of the leader's scheme or of
    another); one detected after it forks at the scheme return."""
    keys = [_key(app, size, Scheme.GLOBAL),
            _key(app, size, Scheme.GLOBAL_DWB, fault=0.6),
            _key(app, size, Scheme.GLOBAL, fault=0.65),
            _key(app, size, Scheme.GLOBAL_DWB, fault=1.3),
            _key(app, size, Scheme.NONE),
            _key(app, size, Scheme.REBOUND_NODWB, fault=1.2),
            _key(app, size, Scheme.REBOUND, fault=0.6),
            _key(app, size, Scheme.REBOUND)]
    _assert_family_matches(keys, n_tasks=2)


def test_fork_points_are_the_detection_or_the_first_scheme_return():
    size = SIZES[0]
    config = resolve_config(_key("ocean", size, Scheme.GLOBAL))
    spec = get_workload("ocean", size[0], config, intervals=size[2],
                        seed=1)
    first = _first_return("ocean", size, Scheme.GLOBAL)
    configs = [config, config.with_scheme(Scheme.GLOBAL_DWB),
               config.with_scheme(Scheme.GLOBAL_DWB),
               config.with_scheme(Scheme.NONE)]
    faults = [[], [(0.6 * first, 2)], [(1.3 * first, 2)], []]
    result = run_replica_batch(config, spec, faults,
                               replica_configs=configs)
    report = result.report
    # No core runs a whole interval in fewer cycles than instructions.
    assert first >= config.checkpoint_interval
    assert report.divergence == [
        float("inf"), 0.6 * first + config.detection_latency, first, first]
    assert (report.variant_forks, report.leader_served,
            report.spilled) == (2, 1, 3)
    for rc, plan, stats in zip(configs, faults, result.stats):
        assert stats == Machine(rc, spec, faults=plan).run()


def test_last_variant_takes_the_leader_over_at_its_first_return():
    """The leader is headed for a Global rider's detection at 401 when
    it holds its first scheme return at 400; the three Global riders
    leave there, and the last takes the leader over.  The sentinel
    planted for 401 must not pause it."""
    traces = [[(COMPUTE, 1), (COMPUTE, 1), (COMPUTE, 398), (END,)],
              [(COMPUTE, 400), (END,)]]
    spec = WorkloadSpec(name="two", traces=[compile_trace(trace)
                                            for trace in traces])
    schemes = [Scheme.GLOBAL_DWB, Scheme.GLOBAL, Scheme.GLOBAL,
               Scheme.GLOBAL]
    faults = [[(0.0, 0)], [], [], [(1.0, 0)]]
    configs = [tiny_config(2, scheme, checkpoint_interval=350)
               for scheme in schemes]
    result = run_replica_batch(configs[0], spec, faults,
                               replica_configs=configs)
    assert result.report.divergence == [400.0] * 4
    assert result.report.variant_forks == 2
    assert result.stats[3].rollbacks
    assert result.stats == [Machine(config, spec, faults=plan).run()
                            for config, plan in zip(configs, faults)]


@pytest.mark.parametrize("app", ["ocean", "water_sp"])
def test_output_records_are_scheme_returns(app):
    """With output I/O the first scheme return is an OUTPUT record,
    long before the first checkpoint decision."""
    size = SIZES[0]
    io_every = MachineConfig.scaled(
        n_cores=size[0], scale=size[1]).checkpoint_interval // 3
    keys = [_key(app, size, scheme, io_every=io_every)
            for scheme in GLOBAL_FAMILY + REBOUND_FAMILY]
    keys.append(_key(app, size, Scheme.GLOBAL_DWB, fault=1.2,
                     io_every=io_every))
    counters = _assert_family_matches(keys, n_tasks=2)
    assert counters["variant_forks"] == 4


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}p")
def test_family_without_its_base_member(size):
    """Global_DWB leads when Global is not in the plan; NONE never
    leads while another member rides."""
    keys = [_key("ocean", size, Scheme.NONE),
            _key("ocean", size, Scheme.GLOBAL_DWB)]
    counters = _assert_family_matches(keys, n_tasks=1)
    assert counters["variant_forks"] == 1


def test_none_alone_is_its_own_leader():
    keys = [_key("water_sp", SIZES[0], Scheme.NONE),
            _key("water_sp", SIZES[0], Scheme.NONE, io_every=20_000)]
    batched, counters, _tasks = _batched(keys)
    assert batched == _standalone(keys)[0]
    assert counters["variant_forks"] == 0
    assert counters["returns.post_op"] == 0


def test_family_table():
    for scheme in GLOBAL_FAMILY:
        assert prefix_family(scheme) is Scheme.GLOBAL
    for scheme in REBOUND_FAMILY:
        assert prefix_family(scheme) is Scheme.REBOUND_NODWB
    for scheme in (Scheme.REBOUND_BARR, Scheme.REBOUND_NODWB_BARR):
        assert prefix_family(scheme) is scheme


def test_other_schemes_batch_alone():
    """The BarCK variants act at barriers and a registered scheme
    declares nothing, so neither shares a batch with another scheme,
    even one built from the same class."""
    tag = register_scheme("family_probe", GlobalScheme)
    try:
        loners = (Scheme.REBOUND_BARR, Scheme.REBOUND_NODWB_BARR, tag)
        everyone = list(Scheme) + [tag]
        size = SIZES[0]
        keys = {scheme: _key("ocean", size, scheme) for scheme in everyone}
        batch_keys = {scheme: ExperimentEngine._batch_key(key)
                      for scheme, key in keys.items()}
        for loner in loners:
            assert [scheme for scheme in everyone
                    if batch_keys[scheme] == batch_keys[loner]] == [loner]
        tasks = _plan(list(keys.values()))
        assert sorted(len(task) for task in tasks) == [1, 1, 1, 2, 3]
    finally:
        unregister_scheme("family_probe")


def test_registered_workloads_do_not_widen():
    """A registered generator sees the whole config, scheme included,
    so its traces may differ by scheme: no family batching."""
    from repro.workloads.registry import WorkloadTag

    keys = [RunKey(WorkloadTag("out_of_tree"), 4, scheme, 1.0, 1, 300)
            for scheme in GLOBAL_FAMILY]
    assert len({ExperimentEngine._batch_key(key) for key in keys}) == 3


@st.composite
def _family_batch(draw):
    """A random family: its schemes in random order and multiplicity,
    each member fault-free or with a few faults (NONE has no recovery,
    so its members stay fault-free)."""
    family = draw(st.sampled_from([GLOBAL_FAMILY, REBOUND_FAMILY]))
    schemes = draw(st.lists(st.sampled_from(family), min_size=2,
                            max_size=4))
    fault = st.tuples(st.floats(0.0, 4_000.0, allow_nan=False),
                      st.integers(0, 1))
    faults = [[] if scheme is Scheme.NONE
              else draw(st.lists(fault, max_size=2)) for scheme in schemes]
    return schemes, faults


@given(random_workload(), _family_batch(), st.integers(1, 5),
       st.sampled_from([150, 350, 900]),
       st.lists(st.integers(0, 40), max_size=2))
@settings(max_examples=100, deadline=None)
def test_random_family_batches_match_standalone_runs(workload, batch, seed,
                                                     interval, outputs):
    """Random small workloads (locks, barriers, OUTPUT records), random
    family members and fault plans: every member's stats equal its
    standalone run, with the golden coherence checker on throughout.
    A standalone run that fails its own checks must fail the batch."""
    n_threads, traces, use_lock, use_barrier = workload
    for position in sorted(outputs, reverse=True):
        traces[0].insert(min(position, len(traces[0]) - 1), (OUTPUT, 0))
    schemes, faults = batch
    spec = WorkloadSpec(
        name="random", traces=[compile_trace(trace) for trace in traces],
        locks=[lock_spec()] if use_lock else [],
        barriers=[barrier_spec(n_threads)] if use_barrier else [])
    configs = [tiny_config(n_threads, scheme, seed=seed,
                           checkpoint_interval=interval)
               for scheme in schemes]
    try:
        alone = [Machine(config, spec, faults=list(plan)).run()
                 for config, plan in zip(configs, faults)]
    except AssertionError:
        with pytest.raises(AssertionError):
            run_replica_batch(configs[0], spec, faults,
                              replica_configs=configs)
        return
    result = run_replica_batch(configs[0], spec, faults,
                               replica_configs=configs)
    assert result.stats == alone
