"""Checkpoints: the compiled core's member loop against the Python one.

A built-in scheme (Global, Global_DWB, Rebound_NoDWB, Rebound) runs a
checkpoint's member steps in one ``mem_checkpoint`` call, and its
delayed drains complete as ``EV_DRAIN`` entries the C loop runs itself
(``mem_drain``).  An out-of-tree subclass that overrides a member hook
runs ``BaseScheme._checkpoint_members`` and ``_complete_drain`` in
Python instead, on the same memory system.  Each case runs both under
the built-in scheme's name and requires equal ``SimStats`` and equal
state: every snapshot field, the stall windows, the core rows, the Dep
sets and their order, the undo log and its seq counter, and the
channel horizons.  The loop counters show which path each side took.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import factory
from repro.core.global_scheme import GlobalScheme
from repro.core.rebound_scheme import ReboundScheme
from repro.core.scheme_base import native_checkpoints
from repro.harness.engine import RunKey, execute_batch
from repro.params import MachineConfig, Scheme
from repro.sim.cores import Core
from repro.sim.machine import Machine
from repro.trace import COMPUTE, END, LOAD, OUTPUT, STORE
from repro.workloads import get_workload
from tests.conftest import make_spec, tiny_config

C, LD, ST = COMPUTE, LOAD, STORE

BUILT_IN = (Scheme.GLOBAL, Scheme.GLOBAL_DWB, Scheme.REBOUND_NODWB,
            Scheme.REBOUND)


class PythonGlobal(GlobalScheme):
    """Out-of-tree: overrides a member hook, so it checkpoints in
    Python."""

    def _rotate(self, pid: int, now: float) -> None:
        super()._rotate(pid, now)


class PythonRebound(ReboundScheme):
    """Out-of-tree: as :class:`PythonGlobal`, for Rebound."""

    def _rotate(self, pid: int, now: float) -> None:
        super()._rotate(pid, now)


def test_only_the_built_in_classes_checkpoint_in_c():
    assert native_checkpoints(GlobalScheme)
    assert native_checkpoints(ReboundScheme)
    assert not native_checkpoints(PythonGlobal)
    assert not native_checkpoints(PythonRebound)


@pytest.fixture
def python_body(monkeypatch):
    """Runs ``run()`` once on the built-in schemes and once with every
    built-in checkpointing scheme built by its Python subclass (same
    names, so the configs and stats stay comparable); returns both."""
    def both(run):
        compiled = run()
        with monkeypatch.context() as patch:
            for scheme in BUILT_IN:
                cls = PythonRebound if scheme.is_local else PythonGlobal
                patch.setitem(factory._BUILDERS, scheme.value, cls)
            python = run()
        return compiled, python
    return both


def state(machine: Machine) -> tuple:
    """Everything a checkpoint or a drain writes, by value."""
    engine = machine.engine
    c = engine._c
    n_ch = machine.config.n_mem_channels
    cores = [([dataclasses.asdict(snap) for snap in core.snapshots],
              list(core.stall_segments),
              [getattr(core, name) for name, _ in Core._fields_],
              dataclasses.asdict(core.stats))
             for core in machine.cores]
    files = getattr(machine.scheme, "files", [])
    deps = [([(d.interval_id, d.start_time, d.producers, d.consumers,
               d.producers_genuine, d.consumers_genuine,
               d.ckpt_complete_time, d.ckpt_started, d.wsig.tests,
               d.wsig.false_positives, sorted(d.wsig.exact))
              for d in f.sets], [d._slot for d in f.sets],
             f._next_interval) for f in files]
    log = [[(e.seq, e.time, e.pid, e.addr, e.old_value, e.interval)
            for e in bank] for bank in machine.log.banks]
    channels = (list(c.demand_busy[0:n_ch]), list(c.wb_busy[0:n_ch]),
                list(c.ckpt_wb_busy[0:n_ch]), c.bg_streams, c.wb_transfers,
                c.log_seq)
    return cores, deps, log, channels, machine.now, machine.loop.seq


def run_to_end(config, spec, faults=None):
    machine = Machine(config, spec, faults=faults)
    stats = machine.run(max_cycles=5e7)
    return stats, state(machine), machine.counters()


def check(compiled, python):
    """Equal results and state; only the compiled side used C."""
    (c_stats, c_state, c_counts), (p_stats, p_state, p_counts) = \
        compiled, python
    assert c_stats == p_stats
    assert c_state == p_state
    assert c_counts["ckpt.calls"] == len(c_stats.checkpoints) > 0
    assert p_counts["ckpt.calls"] == p_counts["drains.completed"] == 0
    return c_stats, c_counts


@pytest.mark.parametrize("scheme", BUILT_IN, ids=lambda s: s.value)
@pytest.mark.parametrize("app,n_cores,scale", [
    ("ocean", 8, 150), ("water_sp", 16, 150), ("fft", 64, 300)])
def test_built_in_checkpoints_match_the_python_body(python_body, scheme,
                                                    app, n_cores, scale):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=scale)
    spec = get_workload(app, n_cores, config, intervals=2.0, seed=1)
    stats, counts = check(*python_body(
        lambda: run_to_end(config, spec)))
    assert counts["ckpt.members"] == sum(e.size for e in stats.checkpoints)
    if scheme.delayed_writebacks:
        assert counts["drains.completed"] == counts["ckpt.members"]


def _io_traces(n: int) -> list:
    """Core 0 stores, then outputs twice while every core's delayed
    drain is in flight; the others keep storing."""
    traces = [[(ST, 1), (ST, 2), (ST, 3), (C, 2_100), (OUTPUT, 0),
               (C, 40), (OUTPUT, 0), (C, 3_000), (END,)]]
    traces += [[(ST, 10 * pid + k) for k in range(6)] +
               [(C, 2_500), (ST, 10 * pid), (C, 2_500), (END,)]
               for pid in range(1, n)]
    return traces


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL_DWB, Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_a_nack_hurries_a_drain(python_body, scheme):
    """An OUTPUT during a drain is Nacked: the drain is hurried (a new
    drain entry), and the original entry later finds it complete."""
    config = tiny_config(4, scheme, dwb_drain_period=400)
    spec = make_spec(_io_traces(4))
    stats, counts = check(*python_body(lambda: run_to_end(config, spec)))
    assert stats.nacks > 0
    assert counts["drains.stale"] > 0


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL_DWB, Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_a_fault_during_a_drain_rolls_back_to_a_c_snapshot(python_body,
                                                           scheme):
    """A fault detected while drains are in flight: the members roll
    back to snapshots the compiled checkpoints took, and the drains of
    the discarded checkpoints are left stale in the queue."""
    config = tiny_config(4, scheme, dwb_drain_period=400,
                         detection_latency=100)
    spec = make_spec(_io_traces(4))
    reference = Machine(config, spec).run()
    first = reference.checkpoints[0]
    fault = first.time + first.duration / 2 - 100
    stats, counts = check(*python_body(
        lambda: run_to_end(config, spec, faults=[(fault, 1)])))
    assert stats.rollbacks
    assert counts["drains.stale"] > 0


def test_out_of_dep_sets_stalls_the_initiator(python_body):
    """Two Dep sets and a long detection latency: a checkpoint finds a
    member with no free set and the initiator stalls (Section 4.2)."""
    config = tiny_config(4, Scheme.REBOUND, n_dep_sets=2,
                         checkpoint_interval=300, detection_latency=5_000)
    traces = [[(ST, 4 * k + pid) if k % 2 else (C, 150)
               for k in range(40)] + [(END,)] for pid in range(4)]
    spec = make_spec(traces)

    def run():
        machine = Machine(config, spec)
        stats = machine.run(max_cycles=5e7)
        assert machine.scheme.depset_defers > 0
        return stats, state(machine), machine.counters()

    check(*python_body(run))


def _paused_mid_drain(scheme):
    config = MachineConfig.scaled(n_cores=16, scheme=scheme, scale=150)
    spec = get_workload("ocean", 16, config, intervals=2.0, seed=1)
    leader = Machine(config, spec)
    leader.start()
    leader.advance(until_scheme=True)
    leader.advance(pause_at=leader.now + 1)
    return leader


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL_DWB, Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_a_fork_completes_its_own_drains(python_body, scheme):
    """Forked with every drain in flight: the clone completes its own
    drain entries, the parent's rows stay as they were, and both then
    finish like the Python body."""
    def run():
        leader = _paused_mid_drain(scheme)
        assert all(core.delayed_ckpt_id is not None
                   for core in leader.cores)
        before = state(leader)
        fork = leader.fork()
        fork.advance()
        fork_stats = fork.finalize()
        assert state(leader) == before
        leader.advance()
        assert leader.finalize() == fork_stats
        return fork_stats, state(leader), leader.counters()

    compiled, python = python_body(run)
    check(compiled, python)


@pytest.mark.parametrize("family", [
    (Scheme.GLOBAL, Scheme.GLOBAL_DWB, Scheme.NONE),
    (Scheme.REBOUND_NODWB, Scheme.REBOUND)],
    ids=lambda family: family[0].value)
def test_a_family_batch_matches_the_python_body(python_body, family):
    """The schemes of a prefix family share a leader; the members fork
    at its first scheme return and checkpoint on their own."""
    keys = [RunKey("water_sp", 16, scheme, 2.0, 1, 150)
            for scheme in family]
    compiled, python = python_body(lambda: execute_batch(keys))
    assert compiled == python


def test_a_64_core_global_run_never_returns_for_a_call():
    """Every checkpoint of a 64-core Global run is one compiled call
    with all 64 members, and nothing comes back to Python for a
    scheduled call; a fork's counters start from zero."""
    config = MachineConfig.scaled(n_cores=64, scheme=Scheme.GLOBAL,
                                  scale=40)
    spec = get_workload("ocean", 64, config, intervals=3.0, seed=1)
    machine = Machine(config, spec)
    machine.start()
    machine.advance(pause_at=1.0)
    fork = machine.fork()
    assert fork.counters()["ckpt.calls"] == fork.counters()["pops"] == 0
    machine.advance()
    stats = machine.finalize()
    counts = machine.counters()
    assert counts["returns.call"] == 0
    assert counts["ckpt.calls"] == len(stats.checkpoints) > 0
    assert counts["ckpt.members"] == 64 * len(stats.checkpoints)
