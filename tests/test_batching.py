"""Parity guard for the fused (batched) simulation hot path.

``Machine.run`` keeps a core resident in the event loop across runs of
consecutive COMPUTE/LOAD/STORE records instead of paying a heap
push/pop per record.  The fusion condition mirrors the serial heap
discipline exactly, so every statistic must be bit-identical to the
one-record-per-pop execution (``fuse_quantum=1``) — for every scheme,
with synchronization, output I/O and fault injection in the mix.
"""

import pytest

from repro.params import MachineConfig, Scheme
from repro.sim.machine import DEFAULT_FUSE_QUANTUM, Machine
from repro.trace import BARRIER, COMPUTE, END, LOAD, STORE, AddressSpace
from repro.workloads import get_workload, inject_output_io
from tests.conftest import make_machine, make_spec, tiny_config

SCALE = 150
INTERVALS = 1.8


def _spec(app, n_cores, config, io_every=None):
    spec = get_workload(app, n_cores, config, intervals=INTERVALS, seed=1)
    if io_every is not None:
        spec = inject_output_io(spec=spec, pid=0,
                                every_instructions=io_every)
    return spec


def _run_pair(app, n_cores, scheme, io_every=None, fault_at=None,
              faults=None, quantum=DEFAULT_FUSE_QUANTUM):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=SCALE)
    if faults is None:
        faults = [(fault_at, 0)] if fault_at is not None else None
    unbatched = Machine(config, _spec(app, n_cores, config, io_every),
                        faults=faults, fuse_quantum=1).run()
    batched = Machine(config, _spec(app, n_cores, config, io_every),
                      faults=faults, fuse_quantum=quantum).run()
    return unbatched, batched


class TestBatchedParity:
    @pytest.mark.parametrize("app,n_cores,scheme", [
        ("blackscholes", 8, Scheme.NONE),
        ("blackscholes", 8, Scheme.REBOUND),
        ("ocean", 8, Scheme.GLOBAL),
        ("ocean", 4, Scheme.GLOBAL_DWB),
        ("barnes", 8, Scheme.REBOUND_BARR),       # barrier-intensive
        ("radiosity", 4, Scheme.REBOUND_NODWB_BARR),
        ("water_sp", 4, Scheme.REBOUND_NODWB),
        ("apache", 4, Scheme.REBOUND),            # lock-heavy
    ])
    def test_matrix_parity(self, app, n_cores, scheme):
        unbatched, batched = _run_pair(app, n_cores, scheme)
        assert batched == unbatched

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND])
    def test_output_io_parity(self, scheme):
        unbatched, batched = _run_pair("blackscholes", 4, scheme,
                                       io_every=4000)
        assert batched == unbatched
        assert any(e.kind == "io" for e in batched.checkpoints)

    def test_output_retry_when_scheme_answers_none(self):
        # OUTPUT every 50 instructions outpaces the Dep-set rotation,
        # so initiate_checkpoint answers None (retry later, Sec 3.3.4);
        # the loop must re-push the core at not_before instead of
        # computing ``None + io_cycles`` (crashed before the fix).
        unbatched, batched = _run_pair("blackscholes", 4, Scheme.REBOUND,
                                       io_every=50)
        assert batched == unbatched
        # The retry path really fired: deferred initiators accumulate
        # Dep-set stall cycles.
        assert sum(c.depset_stall for c in batched.cores) > 0

    @pytest.mark.parametrize("scheme", [Scheme.GLOBAL, Scheme.REBOUND,
                                        Scheme.REBOUND_NODWB])
    def test_fault_injection_parity(self, scheme):
        interval = MachineConfig.scaled(n_cores=4,
                                        scale=SCALE).checkpoint_interval
        unbatched, batched = _run_pair("ocean", 4, scheme,
                                       fault_at=1.6 * interval)
        assert batched == unbatched
        assert batched.rollbacks  # the fault really recovered

    def test_multi_fault_exact_delivery_parity(self):
        # Faults are their own heap events, so delivery happens at the
        # exact detection time no matter how records fuse: the batched
        # run must match the serial one bit-for-bit, and every rollback
        # must be pinned to an injected fault's detection time (under
        # the old piggy-back delivery a fused core could commit work
        # past detect_time before the scheme heard about the fault).
        config = MachineConfig.scaled(n_cores=4, scale=SCALE)
        interval = config.checkpoint_interval
        faults = [(1.3 * interval, 0), (1.32 * interval, 2),
                  (2.4 * interval, 0)]       # back-to-back + same-core
        unbatched, batched = _run_pair("ocean", 4, Scheme.REBOUND,
                                       faults=faults)
        assert batched == unbatched
        assert len(batched.rollbacks) >= 2
        expected = {t + config.detection_latency for t, _ in faults}
        assert {r.detect_time for r in batched.rollbacks} <= expected

    @pytest.mark.parametrize("quantum", [2, 3, 7, 64])
    def test_any_quantum_is_equivalent(self, quantum):
        unbatched, batched = _run_pair("water_sp", 4, Scheme.REBOUND,
                                       quantum=quantum)
        assert batched == unbatched

    def test_single_core_fuses_across_empty_heap(self):
        # One active core: nothing else is ever due, so the whole trace
        # runs in quantum-sized residencies; results must not change.
        trace = [(COMPUTE, 10), (STORE, 3), (LOAD, 3)] * 200 + [(END,)]
        a = make_machine([list(trace)],
                         config=tiny_config(2, Scheme.NONE))
        b = make_machine([list(trace)],
                         config=tiny_config(2, Scheme.NONE))
        b.fuse_quantum = 1
        assert a.run() == b.run()

    def test_rejects_bad_quantum(self):
        spec = make_spec([[(END,)]])
        with pytest.raises(ValueError, match="fuse_quantum"):
            Machine(tiny_config(2, Scheme.NONE), spec, fuse_quantum=0)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, None])
    def test_quantum_validated_on_assignment(self, bad):
        # The loop reads the quantum on every advance(), so a value
        # assigned after construction is checked like a constructor's.
        machine = make_machine([[(COMPUTE, 10), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        with pytest.raises(ValueError, match="fuse_quantum"):
            machine.fuse_quantum = bad
        assert machine.fuse_quantum == DEFAULT_FUSE_QUANTUM
        machine.fuse_quantum = 3
        assert machine.fuse_quantum == 3

    def test_max_cycles_guard_still_fires_in_batch(self):
        # The per-record cycle guard must also trip inside a fused run
        # (single core, empty heap -> pure batching).
        machine = make_machine(
            [[(COMPUTE, 50)] * 100 + [(END,)]],
            config=tiny_config(2, Scheme.NONE))
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.run(max_cycles=1000)

    def test_barrier_sync_parity(self):
        # Hand-built barrier workload: cores meet twice, with skew.
        from repro.trace import AddressSpace
        from tests.conftest import barrier_spec
        traces = [
            [(COMPUTE, 50), (BARRIER, 0), (COMPUTE, 200), (BARRIER, 1),
             (END,)],
            [(COMPUTE, 500), (BARRIER, 0), (COMPUTE, 10), (BARRIER, 1),
             (END,)],
        ]
        def build(quantum):
            space = AddressSpace()
            spec = make_spec([list(t) for t in traces],
                             barriers=[barrier_spec(2, 0, space),
                                       barrier_spec(2, 1, space)])
            return Machine(tiny_config(2, Scheme.REBOUND), spec,
                           fuse_quantum=quantum)
        assert build(DEFAULT_FUSE_QUANTUM).run() == build(1).run()

    @pytest.mark.parametrize("app,scheme", [("ocean", Scheme.GLOBAL),
                                            ("water_sp", Scheme.REBOUND)])
    def test_64_core_parity(self, app, scheme):
        # At 64 cores a residency averages about one record, so nearly
        # every record ends its batch with a replace-top (the core's
        # new entry takes heap[0]'s place); at 8 cores most do not.
        unbatched, batched = _run_pair(app, 64, scheme)
        assert batched == unbatched


def _counted_run(app, n_cores, scheme):
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=SCALE)
    machine = Machine(config, _spec(app, n_cores, config))
    stats = machine.run()
    return stats, machine.counters()


class TestLoopCounters:
    def test_64_core_ocean_pops_about_once_per_record(self):
        stats, counts = _counted_run("ocean", 64, Scheme.GLOBAL)
        records = sum(count for name, count in counts.items()
                      if name.startswith("records."))
        assert counts["records.end"] == 64
        assert counts["records.compute"] + counts["records.load"] + \
            counts["records.store"] > 0.9 * records
        assert 0.9 * records <= counts["pops"] <= 1.1 * records
        assert counts["residencies"] > 0.9 * records
        # One return per END record, one when all are done, and one per
        # post_op gate (the global checkpoint) in between.
        assert counts["returns.record"] == 64
        assert counts["returns.done"] == 1
        assert counts["returns.post_op"] >= len(stats.checkpoints) > 0
        assert counts["returns.limit"] == counts["returns.failed"] == 0

    def test_64_core_barck_drains_complete_in_the_compiled_loop(self):
        """Every drain of a BarCK run, its barrier checkpoints' members
        included, is a queue entry the compiled loop completes itself;
        the only entries it hands back to Python are the faults."""
        config = MachineConfig.scaled(n_cores=64, scheme=Scheme.REBOUND_BARR,
                                      scale=SCALE)
        interval = config.checkpoint_interval
        machine = Machine(config, _spec("ocean", 64, config),
                          faults=[(interval, 5), (1.5 * interval, 40)])

        def python_drain(*args):
            raise AssertionError("a drain returned to Python")

        machine.scheme._complete_drain = python_drain
        stats = machine.run()
        counts = machine.counters()
        barck = sum(e.size for e in stats.checkpoints if e.kind == "barrier")
        assert barck > 0
        assert counts["drains.completed"] + counts["drains.stale"] >= \
            sum(e.size for e in stats.checkpoints)
        assert counts["returns.call"] == len(machine.faults.delivered) == 2

    def test_64_core_ocean_queues_in_the_calendar_and_lines_densely(self):
        """Nearly every push lands in the calendar; once the directory's
        direct table covers the highest data line every data-line lookup
        is dense (sync lines stay hashed); a fork counts from zero."""
        config = MachineConfig.scaled(n_cores=64, scheme=Scheme.GLOBAL,
                                      scale=SCALE)
        spec = _spec("ocean", 64, config)
        reference = Machine(config, spec).run()
        leader = Machine(config, spec)
        leader.start()
        assert leader.advance(pause_at=0.5 * reference.runtime)
        fork = leader.fork()
        assert all(count == 0 for count in fork.counters().values())
        top = max(arg for core in leader.cores
                  for op, arg in zip(core.trace.ops, core.trace.args)
                  if op in (LOAD, STORE) and arg < AddressSpace.SYNC_BASE)
        assert leader.engine._c.dir.ix.ndirect > top
        assert not fork.advance()
        assert fork.finalize() == reference
        counts = fork.counters()
        pushes = counts["pushes.calendar"] + counts["pushes.heap"]
        assert counts["pushes.calendar"] >= 0.99 * pushes > 0
        assert counts["lookups.dense"] > 0
        c = fork.engine._c
        for ix in (c.dir.ix, c.image.ix):
            keys = [ix.keys[i] for i in range(ix.n)]
            assert ix.hashed == sum(key >= AddressSpace.SYNC_BASE
                                    for key in keys)

    def test_counts_repeat_and_stay_out_of_the_results(self):
        first = _counted_run("water_sp", 16, Scheme.REBOUND)
        second = _counted_run("water_sp", 16, Scheme.REBOUND)
        assert first == second
        assert not any(hasattr(first[0], name) for name in first[1])

    def test_a_fork_counts_only_its_own_work(self):
        config = MachineConfig.scaled(n_cores=8, scheme=Scheme.REBOUND,
                                      scale=SCALE)
        spec = _spec("ocean", 8, config)
        whole = Machine(config, spec)
        whole.run()
        leader = Machine(config, spec)
        leader.start()
        assert leader.advance(pause_at=2 * config.checkpoint_interval)
        fork = leader.fork()
        assert fork.counters()["pops"] == 0
        fork.advance()
        fork.finalize()
        total = {name: count + fork.counters()[name]
                 for name, count in leader.counters().items()}
        # The pause's own push, pop and return are the leader's extra
        # work; the pause may sit in either tier of the queue.
        expected = whole.counters()
        for counts in (total, expected):
            counts["pushes"] = (counts.pop("pushes.calendar") +
                                counts.pop("pushes.heap"))
        total["pushes"] -= 1
        total["pops"] -= 1
        total["returns.pause"] -= 1
        assert total == expected
