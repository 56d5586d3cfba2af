"""Locks and barriers: the compiled loop against the oracle machine.

``mem_advance`` executes LOCK and UNLOCK records in ``memsys.c``, and
BARRIER records too unless the scheme's barrier hooks run; then
``SyncManager.barrier_arrive`` calls the hooks between the C primitives.
Machines on the oracle memory system run ``SyncManager``'s Python
methods instead (``test_differential.both``).  Each case requires the
complete ``SimStats`` and the final lock, barrier and per-core sync
state of the two machines to be equal, and a probe on the oracle's
Python methods checks that the case takes the path it is named for.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.coherence.core import lib
from repro.core import register_scheme, unregister_scheme
from repro.core.global_scheme import GlobalScheme
from repro.params import Scheme
from repro.sim.machine import Machine
from repro.sim.sync import SyncManager
from repro.trace import (
    BARRIER,
    COMPUTE,
    END,
    LOAD,
    LOCK,
    STORE,
    UNLOCK,
    AddressSpace,
)
from tests.conftest import barrier_spec, lock_spec, make_spec, tiny_config
from tests.test_differential import both

C, LD, ST = COMPUTE, LOAD, STORE


def sync_state(machine: Machine) -> tuple:
    """Everything the loop keeps about locks and barriers."""
    sync = machine.sync
    return ([(lock.lock_id, lock.holder, lock.queue)
             for lock in sync.locks.values()],
            [(b.barrier_id, b.gen, b.arrived, b.crossed[:])
             for b in sync.barriers.values()],
            sync.lock_acquisitions, sync.barrier_episodes,
            [(core.blocked, core.block_site, core.held_locks,
              core.barrier_crossings, core.sync_wait)
             for core in machine.cores])


@pytest.fixture
def probe(monkeypatch):
    """Counts the oracle's sync paths: ``queued`` (an acquire found the
    lock taken), ``regrant`` (rollback repair granted a lock) and
    ``passed`` (a straggler passed a released barrier generation)."""
    hits = {"queued": 0, "regrant": 0, "passed": 0}
    acquire, arrive = SyncManager.lock_acquire, SyncManager._arrive
    cleanup, rmw = SyncManager.rollback_cleanup, SyncManager._rmw
    repairing = []

    def counted_acquire(self, machine, core, lock_id, now):
        result = acquire(self, machine, core, lock_id, now)
        hits["queued"] += result is None
        return result

    def counted_arrive(self, *args):
        code, t = arrive(self, *args)
        hits["passed"] += code == lib.SYNC_PASSED
        return code, t

    def counted_cleanup(self, *args):
        repairing.append(True)
        try:
            cleanup(self, *args)
        finally:
            repairing.pop()

    def counted_rmw(self, *args):
        hits["regrant"] += bool(repairing)
        return rmw(self, *args)

    monkeypatch.setattr(SyncManager, "lock_acquire", counted_acquire)
    monkeypatch.setattr(SyncManager, "_arrive", counted_arrive)
    monkeypatch.setattr(SyncManager, "rollback_cleanup", counted_cleanup)
    monkeypatch.setattr(SyncManager, "_rmw", counted_rmw)
    return hits


def run_both(traces, config, locks=(), barriers=(), faults=None):
    """``(stats, sync state)`` of the compiled and the oracle machine."""
    spec = make_spec(traces, locks=locks, barriers=barriers)

    def run():
        machine = Machine(config, spec, faults=faults)
        return machine.run(max_cycles=5e6), sync_state(machine)

    compiled, oracle = both(run)
    assert compiled == oracle
    return compiled


def _critical(lock_id: int, line: int, compute: int) -> list:
    return [(LOCK, lock_id), (LD, line), (ST, line), (C, compute),
            (UNLOCK, lock_id)]


#: Four cores take two locks in interleaved critical sections; the
#: first holder keeps lock 0 long enough for three waiters to queue.
CONTENDED = [
    _critical(0, 1, 900) + _critical(1, 2, 50) + _critical(0, 3, 40)
    + [(END,)],
    [(C, 10)] + _critical(0, 3, 200) + _critical(1, 2, 300) + [(END,)],
    [(C, 20)] + _critical(1, 2, 600) + _critical(0, 1, 30) + [(END,)],
    [(C, 30)] + _critical(0, 1, 70) + _critical(1, 4, 20)
    + _critical(0, 4, 10) + [(END,)],
]


@pytest.mark.parametrize("scheme", [Scheme.NONE, Scheme.GLOBAL,
                                    Scheme.REBOUND],
                         ids=lambda s: s.value)
def test_contended_locks_hand_off_in_fifo_order(scheme, probe):
    space = AddressSpace()
    stats, state = run_both(CONTENDED, tiny_config(4, scheme),
                            locks=[lock_spec(0, space), lock_spec(1, space)])
    assert probe["queued"] >= 4
    locks, _, acquisitions, _, cores = state
    assert acquisitions == 10
    assert all(holder is None and not queue for _, holder, queue in locks)
    assert all(core[0] is None for core in cores)
    assert sum(core.sync_wait for core in stats.cores) > 0


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND,
                                    Scheme.REBOUND_NODWB],
                         ids=lambda s: s.value)
def test_rollback_of_a_holder_and_its_waiters(scheme, probe):
    """The holder of lock 0 faults while three cores queue for it: the
    rolled-back waiters leave the queue, the lock is re-granted from
    the snapshots, and every waiter re-queues."""
    traces = [[(ST, 1), (C, 300)] + _critical(0, 2, 2500) + [(C, 3000),
                                                              (END,)]]
    traces += [[(C, 400 + 50 * pid), (LD, 1)] + _critical(0, 2, 100)
               + [(C, 2000), (END,)] for pid in range(1, 4)]
    stats, _ = run_both(traces, tiny_config(4, scheme,
                                            checkpoint_interval=100_000),
                        locks=[lock_spec(0)], faults=[(1200.0, 0)])
    assert stats.rollbacks and probe["queued"] >= 3


def test_rollback_repair_grants_a_freed_lock(probe):
    """A rollback frees a lock a waiter outside the recovery set queues
    for, and the repair grants it (found by a random search)."""
    traces = [
        [(C, 478), (C, 393), (C, 548), (LD, 6), (LOCK, 0), (ST, 6),
         (C, 224), (UNLOCK, 0), (LD, 3), (C, 170), (ST, 3), (ST, 6),
         (LOCK, 0), (ST, 6), (C, 367), (UNLOCK, 0), (ST, 5), (LOCK, 0),
         (ST, 1), (C, 46), (UNLOCK, 0), (END,)],
        [(LD, 2), (LD, 1), (LOCK, 0), (ST, 1), (C, 358), (UNLOCK, 0),
         (C, 313), (LOCK, 0), (ST, 4), (C, 128), (UNLOCK, 0), (END,)],
        [(ST, 5), (C, 169), (ST, 4), (LOCK, 0), (ST, 1), (C, 178),
         (UNLOCK, 0), (LD, 3), (C, 171), (LOCK, 0), (ST, 4), (C, 370),
         (UNLOCK, 0), (ST, 3), (LD, 5), (LOCK, 0), (ST, 6), (C, 84),
         (UNLOCK, 0), (END,)],
        [(LD, 5), (C, 194), (C, 64), (ST, 4), (LOCK, 0), (ST, 3),
         (C, 373), (UNLOCK, 0), (LD, 4), (C, 570), (C, 93), (LD, 6),
         (LOCK, 0), (ST, 2), (C, 282), (UNLOCK, 0), (END,)],
    ]
    config = tiny_config(4, Scheme.REBOUND_NODWB, checkpoint_interval=600)
    stats, _ = run_both(traces, config, locks=[lock_spec(0)],
                        faults=[(1849.0, 3)])
    assert stats.rollbacks and probe["regrant"]


#: A fault on core 0 (REBOUND, interval 600, L 50) rolls it back past a
#: release core 1 keeps: core 0 re-arrives at a generation that already
#: released and passes through (found by a random search).
STRAGGLER = [
    [(ST, 6), (ST, 6), (ST, 6), (ST, 3), (BARRIER, 0), (C, 80), (LD, 6),
     (C, 71), (ST, 3), (BARRIER, 0), (LD, 1), (ST, 1), (BARRIER, 0),
     (END,)],
    [(LD, 5), (C, 542), (BARRIER, 0), (LD, 6), (LD, 4), (BARRIER, 0),
     (C, 409), (LD, 6), (ST, 5), (LD, 1), (BARRIER, 0), (END,)],
]


def test_rolled_back_straggler_passes_through(probe):
    config = tiny_config(2, Scheme.REBOUND, checkpoint_interval=600,
                         detection_latency=50)
    stats, state = run_both(STRAGGLER, config, barriers=[barrier_spec(2)],
                            faults=[(2457.0, 0)])
    assert stats.rollbacks and probe["passed"]
    assert state[1][0][1] == 3          # three generations released


@pytest.mark.parametrize("scheme", [Scheme.REBOUND_BARR,
                                    Scheme.REBOUND_NODWB_BARR],
                         ids=lambda s: s.value)
def test_barrier_hook_schemes(scheme):
    """Under the barrier optimization each BARRIER record comes back to
    Python, which runs the BarCK hooks between the C primitives."""
    traces = [[(ST, 10 + pid), (C, 1750 + 100 * pid), (BARRIER, 0),
               (LD, 10 + (pid + 1) % 4), (C, 500)] + _critical(0, 20, 60)
              + [(BARRIER, 0), (C, 200), (END,)] for pid in range(4)]
    config = tiny_config(4, scheme, checkpoint_interval=2000)
    spec = make_spec(traces, locks=[lock_spec(0)],
                     barriers=[barrier_spec(4)])

    def run():
        machine = Machine(config, spec, faults=[(2900.0, 1)])
        assert machine._table.c.barrier_hooks
        stats = machine.run(max_cycles=5e6)
        return (stats, sync_state(machine),
                machine.scheme.barrier_coordinator.barck_episodes)

    compiled, oracle = both(run)
    assert compiled == oracle
    assert compiled[0].rollbacks and compiled[2]


class _SlowFlagScheme(GlobalScheme):
    """Out-of-tree: every barrier's flag write waits 40 more cycles."""

    def __init__(self, machine):
        super().__init__(machine)
        self.gates = 0

    def barrier_release_gate(self, barrier, now: float) -> float:
        self.gates += 1
        return now + 40


@pytest.fixture
def slow_flag_scheme():
    tag = register_scheme("slow_flag", _SlowFlagScheme)
    yield tag
    unregister_scheme(tag.value)


def test_overridden_barrier_hook_is_called(slow_flag_scheme):
    """A subclass overriding a barrier hook gets its BARRIER records
    back in Python; the built-in schemes without BarCK do not."""
    traces = [[(C, 100 * (pid + 1)), (BARRIER, 0), (C, 50), (BARRIER, 0),
               (END,)] for pid in range(3)]
    spec = make_spec(traces, barriers=[barrier_spec(3)])
    plain = Machine(tiny_config(3, Scheme.GLOBAL), spec)
    assert not plain._table.c.barrier_hooks
    plain_stats = plain.run()

    def run():
        machine = Machine(tiny_config(3, slow_flag_scheme), spec)
        assert machine._table.c.barrier_hooks
        return machine.run(), sync_state(machine), machine.scheme.gates

    compiled, oracle = both(run)
    assert compiled == oracle
    assert compiled[2] == 2
    assert compiled[0].runtime == plain_stats.runtime + 80


def _blocked_workload():
    """Lock 0 is held for long while others queue for it, and cores
    that are done with it spin at the barrier."""
    traces = [[(ST, 1)] + _critical(0, 2, 3000) + [(BARRIER, 0), (C, 800),
                                                   (END,)],
              [(C, 100)] + _critical(0, 2, 200) + [(BARRIER, 0), (END,)],
              [(C, 150), (LD, 1)] + _critical(0, 2, 200)
              + [(BARRIER, 0), (C, 300), (END,)],
              [(C, 50), (ST, 3), (BARRIER, 0), (LD, 2), (END,)]]
    return make_spec(traces, locks=[lock_spec(0)],
                     barriers=[barrier_spec(4)])


@pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND,
                                    Scheme.REBOUND_BARR],
                         ids=lambda s: s.value)
def test_fork_while_cores_are_blocked(scheme):
    """A fork taken while a lock queue is non-empty and a core spins at
    the barrier: the clone (with a fault) and the parent (without) each
    finish like a machine that ran alone."""
    config = tiny_config(4, scheme, checkpoint_interval=100_000)
    spec = _blocked_workload()
    faults = [(1500.0, 0)]

    def run():
        parent = Machine(config, spec)
        parent.start()
        assert parent.advance(pause_at=1000.0)
        state = sync_state(parent)
        assert state[0][0][2] and state[1][0][2]   # a queue, arrivals
        assert "barrier" in [core[0] for core in state[4]]
        clone = parent.fork()
        clone.install_faults(faults)
        assert not clone.advance() and not parent.advance()
        alone = Machine(config, spec, faults=faults)
        alone_stats = alone.run()
        plain = Machine(config, spec)
        plain_stats = plain.run()
        forked = (clone.finalize(), sync_state(clone))
        assert forked == (alone_stats, sync_state(alone))
        resumed = (parent.finalize(), sync_state(parent))
        assert resumed == (plain_stats, sync_state(plain))
        return forked, resumed

    compiled, oracle = both(run)
    assert compiled[0][0].rollbacks
    assert compiled == oracle


def test_fork_owns_its_sync_state():
    """Mutating a fork's lock queue, holder or barrier generation and
    arrivals leaves the parent untouched, and the reverse."""
    config = tiny_config(4, Scheme.REBOUND, checkpoint_interval=100_000)
    parent = Machine(config, _blocked_workload())
    parent.start()
    parent.advance(pause_at=1000.0)
    before = sync_state(parent)
    clone = parent.fork()
    assert sync_state(clone) == before
    lock, barrier = clone.sync.locks[0], clone.sync.barriers[0]
    lock.queue = [2]
    lock.holder = 3
    barrier.gen += 5
    barrier.arrived = []
    barrier.crossed[1] = 7
    assert sync_state(parent) == before
    parent.sync.barriers[0].gen = 9
    parent.sync.locks[0].queue = []
    assert (barrier.gen, lock.queue, lock.holder) == (5, [2], 3)
    # A deep copy of a view's table, not of the view, is a fork's.
    assert copy.deepcopy(parent._table).locks[0].queue == []


def test_views_refuse_bad_ids():
    from repro.sim.cores import CoreTable
    from repro.workloads import BarrierSpec, LockSpec
    with pytest.raises(ValueError):
        CoreTable(2, locks=[LockSpec(1, 64), LockSpec(1, 128)])
    with pytest.raises(ValueError):
        CoreTable(2, barriers=[BarrierSpec(0, [0, 2], 64, 128)])
    table = CoreTable(2, locks=[LockSpec(4, 64)],
                      barriers=[BarrierSpec(3, [1, 0], 128, 192)])
    assert table.locks[4].holder is None and table.locks[4].queue == []
    assert table.barriers[3].participants == [1, 0]


def test_unlock_by_non_holder_is_refused_under_optimize():
    """The C loop hands such a record to Python, whose refusal must not
    be an ``assert`` that ``python -O`` strips."""
    script = (
        "from repro.params import Scheme\n"
        "from repro.trace import COMPUTE, END, LOCK, UNLOCK\n"
        "from tests.conftest import lock_spec, make_machine, tiny_config\n"
        "traces = [[(LOCK, 0), (COMPUTE, 500), (UNLOCK, 0), (END,)],\n"
        "          [(COMPUTE, 10), (UNLOCK, 0), (END,)]]\n"
        "make_machine(traces, locks=[lock_spec()],\n"
        "             config=tiny_config(2, Scheme.NONE)).run()\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    result = subprocess.run([sys.executable, "-O", "-c", script], cwd=root,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode != 0
    assert "unlock by non-holder" in result.stderr
