"""Cross-cutting property tests: invariants over random workloads.

These exercise the full stack — generator, coherence, schemes, faults —
under hypothesis-chosen inputs, asserting the paper's key invariants:

* golden coherence (every load sees the globally last store),
* directory consistency (one exclusive owner; sharers hold copies),
* recovery termination and bounded depth (Appendix A),
* checkpoint accounting consistency (ICHK sizes, snapshot completeness).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import EXCL, SHARED
from repro.params import Scheme
from repro.trace import BARRIER, COMPUTE, END, LOAD, LOCK, STORE, UNLOCK
from tests.conftest import barrier_spec, lock_spec, make_machine, tiny_config

SCHEMES = st.sampled_from([Scheme.GLOBAL, Scheme.GLOBAL_DWB,
                           Scheme.REBOUND_NODWB, Scheme.REBOUND,
                           Scheme.REBOUND_BARR])


@st.composite
def random_workload(draw, max_threads=4, max_ops=40):
    n_threads = draw(st.integers(2, max_threads))
    use_lock = draw(st.booleans())
    use_barrier = draw(st.booleans())
    traces = [[] for _ in range(n_threads)]
    ops = draw(st.lists(
        st.tuples(st.integers(0, n_threads - 1),     # thread
                  st.integers(0, 3),                 # op kind
                  st.integers(0, 11),                # address
                  st.integers(1, 800)),              # compute length
        min_size=4, max_size=max_ops))
    lock_depth = [0] * n_threads
    for thread, kind, addr, length in ops:
        if kind == 0:
            traces[thread].append((COMPUTE, length))
        elif kind == 1:
            traces[thread].append((LOAD, addr))
        elif kind == 2:
            traces[thread].append((STORE, addr))
        elif use_lock:
            if lock_depth[thread] == 0:
                traces[thread].append((LOCK, 0))
                traces[thread].append((STORE, addr))
                traces[thread].append((UNLOCK, 0))
    if use_barrier:
        for trace in traces:
            trace.append((BARRIER, 0))
    for trace in traces:
        trace.append((END,))
    return n_threads, traces, use_lock, use_barrier


class TestSystemProperties:
    @given(random_workload(), SCHEMES, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_golden_coherence_under_all_schemes(self, workload, scheme,
                                                seed):
        n_threads, traces, use_lock, use_barrier = workload
        config = tiny_config(n_threads, scheme, seed=seed,
                             checkpoint_interval=900,
                             check_coherence=True)
        machine = make_machine(
            traces, config=config,
            locks=[lock_spec()] if use_lock else (),
            barriers=[barrier_spec(n_threads)] if use_barrier else ())
        stats = machine.run()   # golden checker raises on violations
        assert all(core.done for core in machine.cores)
        # Directory invariants at quiescence.
        for entry in machine.engine.directory_entries():
            if entry.mode == EXCL:
                assert entry.owner is not None
                line = machine.engine.peek_line(entry.owner, entry.addr)
                assert line is not None
            elif entry.mode == SHARED:
                for pid in entry.sharer_list():
                    assert machine.engine.peek_line(pid, entry.addr) \
                        is not None
        # Every completed checkpoint's snapshot eventually closed.
        for core in machine.cores:
            for snap in core.snapshots:
                assert snap.complete_time is not None

    @given(random_workload(max_ops=30),
           st.sampled_from([Scheme.GLOBAL, Scheme.REBOUND,
                            Scheme.REBOUND_NODWB]),
           st.floats(200.0, 4_000.0))
    @settings(max_examples=30, deadline=None)
    def test_recovery_always_terminates(self, workload, scheme, fault_at):
        """Faults anywhere, under any scheme: the run completes, the
        rollback is bounded, and the rolled-back state is consistent."""
        n_threads, traces, use_lock, use_barrier = workload
        config = tiny_config(n_threads, scheme,
                             checkpoint_interval=700,
                             detection_latency=300,
                             check_coherence=True)
        machine = make_machine(
            traces, config=config,
            locks=[lock_spec()] if use_lock else (),
            barriers=[barrier_spec(n_threads)] if use_barrier else (),
            faults=[(fault_at, 0)])
        stats = machine.run(max_cycles=5e6)
        assert all(core.done for core in machine.cores)
        for event in stats.rollbacks:
            assert 1 <= event.size <= n_threads
            assert event.max_depth <= 4          # no domino effect
            assert event.latency >= 0

    @given(st.integers(2, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_log_volume_conserved(self, n_threads, seed):
        """Total log bytes equals logged writebacks times entry size."""
        from repro.params import LOG_ENTRY_BYTES
        traces = []
        import random
        rng = random.Random(seed)
        for tid in range(n_threads):
            trace = []
            for _ in range(20):
                trace.append((STORE, rng.randrange(12)))
                trace.append((COMPUTE, rng.randrange(1, 400)))
            trace.append((END,))
            traces.append(trace)
        machine = make_machine(traces,
                               config=tiny_config(n_threads, Scheme.REBOUND,
                                                  seed=seed))
        stats = machine.run()
        assert stats.log_bytes == \
            machine.memory.logged_writebacks * LOG_ENTRY_BYTES
