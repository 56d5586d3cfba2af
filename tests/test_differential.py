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
the hypothesis random-workload strategy of ``test_properties``.  One
case also compares what ``SimStats`` does not summarize: the final
memory image, the undo log and the directory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import repro.sim.machine as machine_module
from repro.coherence.protocol import CoherenceEngine
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.workloads import get_workload
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
