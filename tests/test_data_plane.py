"""Zero-copy engine data plane: view loads, chunked dispatch, widening.

Three compounding optimizations share one correctness bar — bit-identical
``SimStats``:

* ``CompiledTrace.from_buffer`` / ``WorkloadSpec.from_buffer`` build
  read-only memoryview columns over a serialized blob (the store mmaps
  entries instead of copying them);
* ``_dispatch`` builds shared workloads in the pool, then packs tasks
  into guided-self-scheduling chunks (affinity-sorted by workload
  digest, workers persist their own cache entries);
* ``_batch_key`` widens replica batches across overrides of config
  fields the scheme declared fault-free invariant, so a
  detection-latency sweep under Global shares one leader walk.
"""

from __future__ import annotations

import pytest

from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    _cache_path_for,
    _run_chunk,
    execute_batch,
    execute_run,
    resolve_config,
)
from repro.harness.workload_store import WorkloadStore
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.trace import TRACE_WIRE_FORMAT, CompiledTrace
from repro.workloads import get_workload, inject_output_io
from repro.workloads.base import WorkloadSpec

SCALE = 300
INTERVALS = 1.5


def _config(scheme=Scheme.GLOBAL, n_cores=4):
    return MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                scale=SCALE)


def _spec(n_cores=4, config=None, app="blackscholes"):
    config = config if config is not None else _config(n_cores=n_cores)
    return get_workload(app, n_cores, config, intervals=INTERVALS, seed=1)


class TestTraceFromBuffer:
    def test_view_equals_copy(self):
        for trace in _spec().traces:
            blob = trace.to_bytes()
            view = CompiledTrace.from_buffer(blob)
            copy = CompiledTrace.from_bytes(blob)
            assert view == copy
            assert view == trace
            assert view.n_instructions == trace.n_instructions
            assert view.to_bytes() == blob

    def test_view_columns_are_read_only(self):
        trace = _spec().traces[0]
        view = CompiledTrace.from_buffer(trace.to_bytes())
        with pytest.raises(TypeError):
            view.ops[0] = 1  # reprolint: disable=RL005
        with pytest.raises(TypeError):
            view.args[0] = 1  # reprolint: disable=RL005

    def test_offset_addressing(self):
        traces = _spec().traces
        blobs = [trace.to_bytes() for trace in traces]
        packed = b"".join(blobs)
        offset = 0
        for trace, blob in zip(traces, blobs):
            assert CompiledTrace.from_buffer(packed, offset) == trace
            offset += len(blob)

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            CompiledTrace.from_buffer(b"\x01\x00")

    def test_rejects_wrong_version(self):
        blob = bytearray(_spec().traces[0].to_bytes())
        blob[0] = TRACE_WIRE_FORMAT + 1
        with pytest.raises(ValueError, match="wire format"):
            CompiledTrace.from_buffer(bytes(blob))

    def test_rejects_truncated_payload(self):
        blob = _spec().traces[0].to_bytes()
        with pytest.raises(ValueError, match="payload"):
            CompiledTrace.from_buffer(blob[:-4])

    def test_rejects_unknown_op(self):
        trace = _spec().traces[0]
        blob = bytearray(trace.to_bytes())
        blob[20] = 0x7F                      # first ops byte
        with pytest.raises(ValueError, match="unknown trace op"):
            CompiledTrace.from_buffer(bytes(blob))


class TestSpecFromBuffer:
    def test_spec_round_trip_parity(self):
        spec = _spec()
        data = spec.to_bytes()
        copied = WorkloadSpec.from_bytes(data)
        viewed = WorkloadSpec.from_buffer(data)
        assert viewed.name == copied.name == spec.name
        assert len(viewed.traces) == len(spec.traces)
        for v, c in zip(viewed.traces, copied.traces):
            assert v == c

    @pytest.mark.parametrize("scheme,io_every,fault", [
        (Scheme.NONE, None, False),
        (Scheme.GLOBAL, None, False),
        (Scheme.GLOBAL, 4000, False),
        (Scheme.GLOBAL, None, True),
        (Scheme.REBOUND, None, False),
        (Scheme.REBOUND, 4000, True),
    ])
    def test_sim_parity_view_vs_copy(self, scheme, io_every, fault):
        # The acceptance bar: a machine fed memoryview columns over the
        # serialized blob produces bit-identical SimStats to one fed
        # freshly copied array columns — across schemes, output I/O
        # injection and fault recovery.
        config = _config(scheme=scheme)
        data = _spec(config=config).to_bytes()
        faults = [(1.6 * config.checkpoint_interval, 0)] if fault else None

        def run(spec):
            if io_every is not None:
                spec = inject_output_io(spec=spec, pid=0,
                                        every_instructions=io_every)
            return Machine(config, spec, faults=faults).run()

        assert run(WorkloadSpec.from_buffer(data)) \
            == run(WorkloadSpec.from_bytes(data))


class TestStoreLRU:
    def test_second_load_is_lru_hit(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path)
        first = store.get_or_build("blackscholes", 4, config,
                                   INTERVALS, 1)
        again = store.get_or_build("blackscholes", 4, config,
                                   INTERVALS, 1)
        assert again is first                # the cached spec object
        assert store.lru_hits == 1
        assert store.hits == 1               # lru_hits ⊆ hits
        assert store.misses == 1

    def test_capacity_zero_disables(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path, lru_capacity=0)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert store.lru_hits == 0
        assert store.hits == 1               # disk hit still counted

    def test_eviction_keeps_capacity(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path, lru_capacity=1)
        store.get_or_build("blackscholes", 2, config, INTERVALS, 1)
        store.get_or_build("water_sp", 2, config, INTERVALS, 1)
        assert len(store._lru) == 1
        # blackscholes was evicted: loading it again is a disk hit,
        # not an LRU hit.
        store.get_or_build("blackscholes", 2, config, INTERVALS, 1)
        assert store.lru_hits == 0

    def test_corrupt_entry_counted_and_rebuilt(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path)
        digest = store.digest_for("blackscholes", 4, config, INTERVALS, 1)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        store.path_for(digest).write_bytes(b"garbage")
        fresh = WorkloadStore(tmp_path)
        spec = fresh.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert spec is not None
        assert fresh.corrupt_rebuilds == 1
        assert fresh.misses == 1

    def test_write_failure_counted(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        config = _config()
        store = WorkloadStore(blocked)
        spec = store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert spec is not None              # build still served
        assert store.write_failures == 1
        assert store.disabled

    def test_counters_dict_complete(self, tmp_path):
        store = WorkloadStore(tmp_path)
        assert set(store.counters()) == {
            "hits", "misses", "builds", "lru_hits", "corrupt_rebuilds",
            "write_failures"}


KEY_A1 = RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, 1, SCALE)
KEY_A2 = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1, SCALE)
KEY_B1 = RunKey("water_sp", 2, Scheme.NONE, INTERVALS, 1, SCALE)
KEY_B2 = RunKey("water_sp", 2, Scheme.GLOBAL, INTERVALS, 1, SCALE)


class TestChunkedDispatch:
    def test_affinity_groups_share_a_chunk(self):
        # Interleaved submissions of two workloads: the chunks hold each
        # workload's tasks contiguously (first-seen group order,
        # submission order within a group), so the first guided chunk
        # holds four tasks of one workload.
        a_keys = [RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, 1,
                         SCALE, overrides={"detection_latency": 2000 + i})
                  for i in range(8)]
        b_keys = [RunKey("water_sp", 2, Scheme.NONE, INTERVALS, 1, SCALE,
                         overrides={"detection_latency": 2000 + i})
                  for i in range(8)]
        interleaved = [[key] for pair in zip(a_keys, b_keys)
                       for key in pair]
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        chunks = eng._chunk_tasks(interleaved, workers=1)
        assert [key for chunk in chunks for [key] in chunk] \
            == a_keys + b_keys
        assert chunks[0] == [[key] for key in a_keys[:4]]

    @staticmethod
    def _seed_tasks(n):
        return [[RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, seed,
                        SCALE)] for seed in range(n)]

    def test_adaptive_size_bounds(self):
        # Guided self-scheduling: ceil(remaining / (4 * workers)) per
        # chunk, capped at 32 — sizes never grow, and the tail of every
        # plan is single tasks.
        eng = ExperimentEngine(jobs=4, use_disk_cache=False)
        for n_tasks, workers in [(1000, 2), (300, 4), (100, 4), (10, 2),
                                 (3, 2), (1, 1)]:
            chunks = eng._chunk_tasks(self._seed_tasks(n_tasks), workers)
            sizes = [len(chunk) for chunk in chunks]
            assert all(1 <= size <= 32 for size in sizes), sizes
            assert all(a >= b for a, b in zip(sizes, sizes[1:])), sizes
            tail = sizes[-workers:]
            assert tail == [1] * len(tail), sizes
            # at least two chunks per worker whenever the plan allows
            assert len(chunks) >= min(n_tasks, 2 * workers)

    def test_guided_chunks_hold_every_task_once(self):
        eng = ExperimentEngine(jobs=4, use_disk_cache=False)
        tasks = self._seed_tasks(300)
        chunks = eng._chunk_tasks(tasks, workers=4)
        flat = [key for chunk in chunks for [key] in chunk]
        assert len(flat) == len(tasks)
        assert set(flat) == {key for [key] in tasks}

    def test_ten_tasks_on_two_workers_end_in_singles(self):
        # The fig6_3@64 shape: with one fixed size the last chunks held
        # two long runs back to back while the other worker idled.
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        chunks = eng._chunk_tasks(self._seed_tasks(10), workers=2)
        assert [len(chunk) for chunk in chunks] == [2] + [1] * 8

    def test_chunked_parallel_matches_serial(self):
        keys = [KEY_A1, KEY_A2, KEY_B1, KEY_B2]
        serial = ExperimentEngine(jobs=1, use_disk_cache=False)
        expect = serial.run_many(keys)
        chunked = ExperimentEngine(jobs=3, use_disk_cache=False)
        got = chunked.run_many(keys)
        for key in keys:
            assert got[key] == expect[key], key

    def test_failing_task_reports_itself_siblings_cache(self, tmp_path):
        # One chunk of three tasks, run in-process exactly as a pool
        # worker runs it: the raising task reports its own error while
        # its chunk siblings complete AND their results land in the disk
        # cache (written by the worker itself).
        bad = RunKey("no_such_app", 4, Scheme.NONE, INTERVALS, 1, SCALE)
        outcomes, deltas = _run_chunk([[KEY_A1], [bad], [KEY_A2]],
                                      str(tmp_path / "workloads"),
                                      str(tmp_path))
        assert [outcome[0] for outcome in outcomes] == ["ok", "err", "ok"]
        assert "no_such_app" in repr(outcomes[1][1])
        assert outcomes[0][3] and outcomes[2][3]     # cached by the worker
        assert deltas["builds"] == 1                 # one shared workload
        # A fresh engine replays the siblings from disk.
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        got = fresh.run_many([KEY_A1, KEY_A2])
        assert fresh.disk_hits == 2
        assert not fresh.profile
        assert [got[KEY_A1]] == outcomes[0][1]
        assert [got[KEY_A2]] == outcomes[2][1]

    def test_interrupt_stops_the_chunk(self, tmp_path):
        # Ctrl-C is not a task failure: the task loop re-raises it
        # instead of running the rest of the chunk, so the task after
        # the interrupted one never runs and writes no cache entry.
        from repro.workloads import register_workload
        from repro.workloads.registry import unregister_workload

        def interrupted(n_threads, config, intervals, seed):
            raise KeyboardInterrupt

        tag = register_workload("interrupting_wl", interrupted,
                                fingerprint="interrupt-v1")
        try:
            with pytest.raises(KeyboardInterrupt):
                _run_chunk([[RunKey(tag, 4, Scheme.NONE, INTERVALS, 1,
                                    SCALE)], [KEY_A1]],
                           str(tmp_path / "workloads"), str(tmp_path))
        finally:
            unregister_workload("interrupting_wl")
        assert not _cache_path_for(tmp_path, KEY_A1).exists()

    def test_worker_store_counters_aggregate(self, tmp_path):
        # Keys that differ in io_every share one store digest but not a
        # replica-batch identity: four tasks over one workload.
        keys = [RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, 1,
                       SCALE, io_every=4000 + 1000 * i)
                for i in range(4)]
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True)
        eng.run_many(keys)
        counters = eng.store_counters()
        # A pool build job built the shared workload once and shipped its
        # counter deltas back; every run then loaded it in a worker.
        assert counters["builds"] == 1
        assert eng.workload_store.builds == 0
        assert counters["hits"] >= 1
        assert counters["write_failures"] == 0
        assert counters["corrupt_rebuilds"] == 0

    def test_shared_workloads_build_in_the_pool(self, tmp_path):
        # Two shared workloads at -j 2: each is built exactly once, by a
        # pool build job, never in the parent; a shared workload whose
        # builder raises fails only its own runs, each by RunKey.
        from repro.workloads import register_workload
        from repro.workloads.registry import unregister_workload

        def broken(n_threads, config, intervals, seed):
            raise RuntimeError("builder exploded")

        tag = register_workload("pool_broken_wl", broken,
                                fingerprint="broken-v1")
        try:
            good = [KEY_A1, KEY_A2, KEY_B1, KEY_B2]
            bad = [RunKey(tag, 4, Scheme.NONE, INTERVALS, 1, SCALE),
                   RunKey(tag, 4, Scheme.GLOBAL, INTERVALS, 1, SCALE)]
            eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                                   use_disk_cache=True)
            with pytest.raises(RuntimeError) as excinfo:
                eng.run_many(good + bad)
        finally:
            unregister_workload("pool_broken_wl")
        message = str(excinfo.value)
        assert "2 of 6 run(s)" in message
        assert "builder exploded" in message
        for key in bad:
            assert eng._describe(key) in message
        for key in good:
            assert key in eng.memo
        assert eng.workload_store.builds == 0         # never the parent
        assert eng.store_counters()["builds"] == 2    # once per workload
        assert len(list(eng.workload_store.root.glob("*.wl"))) == 2
        expect = ExperimentEngine(jobs=1, use_disk_cache=False)
        for key in good:
            assert eng.memo[key] == expect.run(key), key

    def test_no_cache_still_writes_nothing(self, tmp_path):
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=False)
        eng.run_many([KEY_A1, KEY_A2, KEY_B1])
        assert list(tmp_path.iterdir()) == []


def _l_keys(scheme, fault=True, n=3):
    config = MachineConfig.scaled(n_cores=4, scheme=scheme, scale=SCALE)
    fault_at = 1.6 * config.checkpoint_interval
    return [RunKey("blackscholes", 4, scheme, INTERVALS, 1, SCALE,
                   fault_at=fault_at if fault else None,
                   overrides={"detection_latency": 2_000 * (i + 1)})
            for i in range(n)]


class TestBatchWidening:
    def test_batch_key_strips_invariant_overrides(self):
        keys = _l_keys(Scheme.GLOBAL)
        idents = {ExperimentEngine._batch_key(key) for key in keys}
        assert len(idents) == 1

    def test_rebound_never_widens(self):
        # Rebound's dep-register recycling reads L during *fault-free*
        # checkpointing (can_open_interval), so it must not declare the
        # invariance — each L value stays its own replica group.
        keys = _l_keys(Scheme.REBOUND)
        idents = {ExperimentEngine._batch_key(key) for key in keys}
        assert len(idents) == len(keys)

    def test_non_invariant_override_still_splits(self):
        base = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1,
                      SCALE, overrides={"backoff_max": 400})
        other = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1,
                       SCALE, overrides={"backoff_max": 800})
        assert ExperimentEngine._batch_key(base) \
            != ExperimentEngine._batch_key(other)

    def test_plan_forms_one_batch_across_l(self):
        keys = _l_keys(Scheme.GLOBAL)
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        tasks = eng._plan_tasks(list(keys))
        assert tasks == [keys]               # one batch spanning all L

    def test_fig_l_sensitivity_plan_batches_span_all_l(self):
        from repro.harness.experiments import plan_experiment
        from repro.harness.runner import Runner
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        runner = Runner(scale=SCALE, intervals=INTERVALS, engine=eng)
        keys = plan_experiment("fig_l_sensitivity", runner,
                               apps=["blackscholes"], n_cores=4, n_seeds=1)
        tasks = eng._plan_tasks(list(dict.fromkeys(keys)))
        l_values = {key.overrides["detection_latency"] for key in keys}
        assert len(l_values) == 3
        global_batches = [task for task in tasks
                          if task[0].scheme is Scheme.GLOBAL]
        assert global_batches
        widest = max(global_batches, key=len)
        assert {key.overrides["detection_latency"] for key in widest} \
            == l_values

    @pytest.mark.parametrize("fault", [True, False])
    def test_widened_batch_parity(self, fault):
        keys = _l_keys(Scheme.GLOBAL, fault=fault)
        stats_list = execute_batch(list(keys))
        for key, stats in zip(keys, stats_list):
            expect = execute_run(key)
            assert stats == expect, key
            assert stats.config == resolve_config(key)

    def test_replica_configs_validation(self):
        from repro.sim.vector import run_replica_batch
        config = _config()
        spec = _spec(config=config)
        with pytest.raises(ValueError, match="replica_configs"):
            run_replica_batch(config, spec, [[], []],
                              replica_configs=[config])

    def test_replica_configs_vector_parity(self):
        from repro.sim.vector import run_replica_batch
        base = _config()
        fault_at = 1.6 * base.checkpoint_interval
        configs = [base.replace(detection_latency=2_000 * (i + 1))
                   for i in range(3)]
        fault_lists = [[(fault_at, 0)], [], [(fault_at, 2)]]
        spec_bytes = _spec(config=base).to_bytes()
        result = run_replica_batch(base,
                                   WorkloadSpec.from_bytes(spec_bytes),
                                   fault_lists, replica_configs=configs)
        for rc, faults, stats in zip(configs, fault_lists, result.stats):
            scalar = Machine(rc, WorkloadSpec.from_bytes(spec_bytes),
                             faults=list(faults)).run()
            assert stats == scalar
            assert stats.config == rc
