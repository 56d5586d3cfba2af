"""Differential suite: the compiled memory system against the oracle.

Every :class:`~repro.sim.machine.Machine` runs the compiled core
(:class:`repro.coherence.core.CompiledEngine`).  Each case here runs the
same configuration twice -- as built, and with the engine class name
``repro.sim.machine`` uses monkeypatched to the Python oracle
(:class:`repro.coherence.protocol.CoherenceEngine`) -- and requires the
complete :class:`~repro.sim.stats.SimStats` of both to be equal.

Cases: every ``test_memsys`` campaign (pinned-digest matrix and the
golden-checked campaign), the ``BENCH_speed.json`` kernel matrix,
fig6_3's five schemes at 64 cores on water_sp and ocean at a reduced
scale, a fig6_6-style late-fault recovery run at 16 and 64 cores, and
the hypothesis random-workload strategy of ``test_properties``.  Some
cases also compare what ``SimStats`` does not summarize: the final
memory image, the undo log and the directory, and the Rebound hook
state (Dep sets, WSIG counters, log entries) under saturated WSIGs,
Dep-set pressure, the barrier optimization, clusters and a fork.

The compiled machine also runs its loop in C (``mem_advance``) while
the oracle machine runs the Python loop, so these cases compare the two
loops too.  The last cases drive each way the C loop returns to Python:
a replica batch (pause, fork, installed faults), a scheme called after
every record, and an output record retried after a busy ``on_output``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import repro.sim.machine as machine_module
from repro.coherence.protocol import CoherenceEngine
from repro.core import register_scheme, unregister_scheme
from repro.core.global_scheme import GlobalScheme
from repro.core.rebound_scheme import ReboundScheme
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.sim.vector import run_replica_batch
from repro.workloads import get_workload, inject_output_io
from tests import test_memsys
from tests.conftest import barrier_spec, lock_spec, make_machine, tiny_config
from tests.test_properties import SCHEMES, random_workload


def both(run):
    """``(compiled, oracle)``: ``run()`` on the production engine, then
    again with the oracle engine patched into ``repro.sim.machine``."""
    compiled = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine_module, "CompiledEngine", CoherenceEngine)
        oracle = run()
    return compiled, oracle


def test_oracle_patch_reaches_the_machine():
    config = tiny_config(2)
    spec = get_workload("blackscholes", 2, config, intervals=0.5, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine_module, "CompiledEngine", CoherenceEngine)
        assert type(Machine(config, spec).engine) is CoherenceEngine
    assert type(Machine(config, spec).engine) is not CoherenceEngine


@pytest.mark.parametrize("case", test_memsys.MATRIX,
                         ids=lambda case: test_memsys._case_id(*case))
def test_memsys_matrix(case):
    compiled, oracle = both(lambda: test_memsys._matrix_runs(*case))
    assert compiled == oracle


def test_memsys_golden_checked_campaign():
    compiled, oracle = both(test_memsys._golden_checked_runs)
    assert compiled == oracle


#: ``benchmarks/bench_speed.py``'s kernel matrix (MATRIX, SCALE,
#: INTERVALS): the configurations ``BENCH_speed.json`` reports.
BENCH_MATRIX = (
    ("blackscholes", 16, Scheme.REBOUND),
    ("ocean", 16, Scheme.GLOBAL),
    ("water_sp", 8, Scheme.NONE),
    ("barnes", 8, Scheme.REBOUND_BARR),
    ("streamcluster", 8, Scheme.REBOUND),
)


def _run(app, n_cores, scheme, scale, intervals, faults=None):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=scale)
    spec = get_workload(app, n_cores, config, intervals=intervals, seed=1)
    return Machine(config, spec, faults=faults).run()


@pytest.mark.parametrize("app,n_cores,scheme", BENCH_MATRIX,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_bench_speed_matrix(app, n_cores, scheme):
    compiled, oracle = both(lambda: _run(app, n_cores, scheme, 40, 2.0))
    assert compiled == oracle


#: fig6_3's schemes: the baseline plus the four checkpointing schemes.
FIG6_3_SCHEMES = (Scheme.NONE, Scheme.GLOBAL, Scheme.GLOBAL_DWB,
                  Scheme.REBOUND_NODWB, Scheme.REBOUND)


@pytest.mark.parametrize("app", ["water_sp", "ocean"])
@pytest.mark.parametrize("scheme", FIG6_3_SCHEMES, ids=lambda s: s.value)
def test_fig6_3_at_64_cores(app, scheme):
    compiled, oracle = both(lambda: _run(app, 64, scheme, 400, 2.5))
    assert compiled == oracle
    assert compiled.mem_accesses > 0


@pytest.mark.parametrize("n_cores", [16, 64])
@pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND,
                                    Scheme.REBOUND_NODWB],
                         ids=lambda s: s.value)
def test_fig6_6_late_fault_recovery(n_cores, scheme):
    """A fault on core 0 late in the run, as fig6_6 measures recovery."""
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=400)
    fault_at = 2.0 * config.checkpoint_interval
    compiled, oracle = both(lambda: _run(
        "ocean", n_cores, scheme, 400, 2.5, faults=[(fault_at, 0)]))
    assert compiled.rollbacks
    assert compiled == oracle


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_final_memory_log_and_directory(scheme):
    """State SimStats does not summarize: the memory image, every undo
    log entry and the directory, in creation order."""
    config = MachineConfig.scaled(n_cores=8, scheme=scheme, scale=150)

    def run():
        spec = get_workload("ocean", 8, config, intervals=2.0, seed=1)
        machine = Machine(config, spec, faults=[
            (1.5 * config.checkpoint_interval, 3)])
        stats = machine.run()
        log = [(e.seq, e.time, e.pid, e.addr, e.old_value, e.interval)
               for bank in machine.log.banks for e in bank]
        return (stats, machine.memory.snapshot(), log,
                machine.engine.directory_entries())

    compiled, oracle = both(run)
    assert compiled[1] and compiled[2]
    assert compiled == oracle


def _hook_state(machine):
    """What the per-access hooks leave behind: every core's Dep sets
    (interval ids, the four masks, checkpoint completion, WSIG counters
    and exact shadow) with its file counters, and every undo log
    entry."""
    files = [([(dep.interval_id, dep.producers, dep.consumers,
                dep.producers_genuine, dep.consumers_genuine,
                dep.ckpt_complete_time, dep.wsig.tests,
                dep.wsig.false_positives, sorted(dep.wsig.exact))
               for dep in file.sets],
              file.stall_events, file.retired_wsig_tests,
              file.retired_wsig_fps)
             for file in machine.scheme.files]
    log = [(e.seq, e.time, e.pid, e.addr, e.old_value, e.interval)
           for bank in machine.log.banks for e in bank]
    return files, log


#: Hook-state cases (name, scheme, config overrides), run with a
#: checkpoint every 6,000 instructions: saturated WSIGs where false
#: positives are common, two Dep sets recycled (short detection
#: latency) and exhausted (long), the barrier optimization's
#: ``force_open`` merge, Dep-register clusters.
HOOK_CASES = (
    ("wsig_bits_2", Scheme.REBOUND, dict(wsig_bits=2, wsig_hashes=1)),
    ("wsig_bits_16", Scheme.REBOUND, dict(wsig_bits=16)),
    ("two_dep_sets_recycled", Scheme.REBOUND_NODWB,
     dict(n_dep_sets=2, detection_latency=2_000)),
    ("two_dep_sets_stalled", Scheme.REBOUND,
     dict(n_dep_sets=2, detection_latency=20_000)),
    ("barrier_opt", Scheme.REBOUND_BARR, dict(n_dep_sets=2)),
    ("barrier_opt_nodwb", Scheme.REBOUND_NODWB_BARR, dict(n_dep_sets=2)),
    ("clusters_of_4", Scheme.REBOUND, dict(dep_cluster_size=4)),
)


@pytest.mark.parametrize("name,scheme,overrides", HOOK_CASES,
                         ids=[case[0] for case in HOOK_CASES])
def test_hook_state(name, scheme, overrides):
    """The Dep registers, WSIGs and undo log of the compiled core against
    the Python scheme's, after a run with a rollback."""
    base = MachineConfig.scaled(n_cores=8, scheme=scheme, scale=150)
    spec = get_workload("ocean", 8, base, intervals=2.0, seed=1)
    config = base.replace(checkpoint_interval=6_000, **overrides)

    def run():
        machine = Machine(config, spec, faults=[
            (3.5 * config.checkpoint_interval, 3)])
        return machine.run(), _hook_state(machine)

    compiled, oracle = both(run)
    stats, (files, log) = compiled
    assert stats.rollbacks and log and stats.wsig_false_positives
    retired = sum(file[2] for file in files)
    merged = sum(file[1] for file in files)
    if name == "two_dep_sets_recycled":
        assert retired
    if name == "two_dep_sets_stalled":
        assert sum(core.depset_stall for core in stats.cores)
    if name.startswith("barrier_opt"):
        assert merged
    assert compiled == oracle


def test_hook_state_of_a_fork():
    """A fork taken mid-run carries the Dep registers, WSIGs and log
    into its clone and finishes like the oracle's fork."""
    config = MachineConfig.scaled(n_cores=8, scheme=Scheme.REBOUND,
                                  scale=150)
    spec = get_workload("ocean", 8, config, intervals=2.0, seed=1)

    def run():
        leader = Machine(config, spec)
        leader.start()
        leader.advance(pause_at=config.checkpoint_interval)
        fork = leader.fork()
        fork.install_faults([(1.5 * config.checkpoint_interval, 2)])
        assert not fork.advance()
        assert not leader.advance()
        return (fork.finalize(), _hook_state(fork), leader.finalize(),
                _hook_state(leader))

    compiled, oracle = both(run)
    assert compiled[0].rollbacks and not compiled[2].rollbacks
    assert compiled == oracle


@given(random_workload(), SCHEMES)
@settings(max_examples=40, deadline=None)
def test_random_workloads(workload, scheme):
    n_threads, traces, use_lock, use_barrier = workload
    config = tiny_config(n_threads, scheme, checkpoint_interval=900,
                         check_coherence=True)

    def run():
        return make_machine(
            traces, config=config,
            locks=[lock_spec()] if use_lock else (),
            barriers=[barrier_spec(n_threads)] if use_barrier else (),
            faults=[(1500.0, 0)] if scheme != Scheme.NONE else None,
        ).run(max_cycles=5e6)

    compiled, oracle = both(run)
    assert compiled == oracle


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_replica_batch_at_16_cores(scheme):
    """The leader pauses at each replica's first detection time, forks
    (cloning the C heap and core table) and arms the fork's faults."""
    config = MachineConfig.scaled(n_cores=16, scheme=scheme, scale=150)
    spec = get_workload("ocean", 16, config, intervals=2.0, seed=1)
    interval = config.checkpoint_interval
    fault_lists = [[(0.9 * interval, 5), (1.6 * interval, 2)],
                   [(1.2 * interval, 3)], []]

    def run():
        result = run_replica_batch(config, spec, fault_lists)
        assert (result.report.spilled, result.report.direct_runs,
                result.report.leader_served) == (2, 0, 1)
        return result.stats

    compiled, oracle = both(run)
    assert all(stats.rollbacks for stats in compiled[:2])
    assert compiled == oracle


class _EveryRecordScheme(ReboundScheme):
    """Out-of-tree: ``post_op`` runs before every record, and every
    fifth call stalls the core for a few cycles (a back-off)."""

    def __init__(self, machine):
        super().__init__(machine)
        self.post_ops = 0

    def post_op_gate(self) -> float:
        return 0

    def post_op(self, core, now: float) -> None:
        self.post_ops += 1
        if self.post_ops % 5 == 0:
            self._charge_backoff(core, now, now + 7)
            core.not_before = max(core.not_before, now + 7)
            return
        super().post_op(core, now)


class _BusyOutputScheme(GlobalScheme):
    """Out-of-tree: each core's first output finds the scheme busy."""

    def __init__(self, machine):
        super().__init__(machine)
        self.refused: set[int] = set()

    def on_output(self, core, now: float):
        if core.pid not in self.refused:
            self.refused.add(core.pid)
            core.not_before = max(core.not_before, now + 50)
            return None
        return super().on_output(core, now)


@pytest.fixture
def out_of_tree_schemes():
    tags = (register_scheme("every_record", _EveryRecordScheme,
                            is_local=True, delayed_writebacks=True),
            register_scheme("busy_output", _BusyOutputScheme))
    yield tags
    for tag in tags:
        unregister_scheme(tag.value)


def test_scheme_called_after_every_record(out_of_tree_schemes):
    tag = out_of_tree_schemes[0]
    config = MachineConfig.scaled(n_cores=8, scheme=tag, scale=150)
    spec = get_workload("ocean", 8, config, intervals=2.0, seed=1)
    compiled, oracle = both(lambda: Machine(config, spec).run())
    assert compiled.checkpoints
    assert sum(core.ckpt_backoff for core in compiled.cores) > 0
    assert compiled == oracle


def test_output_retried_after_a_busy_scheme(out_of_tree_schemes):
    tag = out_of_tree_schemes[1]
    config = MachineConfig.scaled(n_cores=8, scheme=tag, scale=150)
    spec = inject_output_io(
        get_workload("water_sp", 8, config, intervals=2.0, seed=1),
        pid=2, every_instructions=config.checkpoint_interval // 2)
    compiled, oracle = both(lambda: Machine(config, spec).run())
    assert any(event.kind == "io" for event in compiled.checkpoints)
    assert compiled == oracle
