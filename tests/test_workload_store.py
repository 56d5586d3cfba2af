"""Tests for the content-addressed workload store and the workload
registry.

The store guarantee: a store hit deserializes to *exactly* the workload
a fresh build would produce — equal spec, byte-for-byte identical IR —
and a stored workload simulates identically, so the store can never
change a result.  The registry mirrors the scheme registry: built-ins
are plain names, out-of-tree generators ride a picklable
``WorkloadTag``.
"""

import pickle
import shutil

import pytest

from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    execute_run,
    resolve_config,
)
import repro.harness.workload_store as workload_store
from repro.harness.workload_store import WorkloadStore, generator_fingerprint
from repro.params import MachineConfig, Scheme
from repro.trace import TraceBuilder
from repro.workloads import (
    get_workload,
    list_workloads,
    register_workload,
    registered_workloads,
    resolve_workload,
    unregister_workload,
    workload_fingerprint,
    workload_name,
    WorkloadTag,
)
from repro.workloads.base import WorkloadSpec

SCALE = 300
INTERVALS = 1.5


def small_config(**over):
    return MachineConfig.scaled(n_cores=4, scheme=Scheme.NONE,
                                scale=SCALE, **over)


class TestStoreRoundTrip:
    def test_store_hit_equals_fresh_build_byte_for_byte(self, tmp_path):
        store = WorkloadStore(tmp_path)
        config = small_config()
        cold = store.get_or_build("ocean", 4, config, INTERVALS, 7)
        assert store.misses == 1 and store.hits == 0
        warm = store.get_or_build("ocean", 4, config, INTERVALS, 7)
        assert store.hits == 1
        fresh = get_workload("ocean", 4, config, intervals=INTERVALS,
                             seed=7)
        assert warm == fresh
        assert warm.to_bytes() == fresh.to_bytes() == cold.to_bytes()

    def test_distinct_parameters_distinct_entries(self, tmp_path):
        store = WorkloadStore(tmp_path)
        config = small_config()
        rescaled = config.replace(
            checkpoint_interval=2 * config.checkpoint_interval)
        digests = {
            store.digest_for("ocean", 4, config, INTERVALS, 1),
            store.digest_for("ocean", 8, config, INTERVALS, 1),
            store.digest_for("ocean", 4, rescaled, INTERVALS, 1),
            store.digest_for("ocean", 4, config, 2 * INTERVALS, 1),
            store.digest_for("ocean", 4, config, INTERVALS, 2),
            store.digest_for("fft", 4, config, INTERVALS, 1),
        }
        assert len(digests) == 6

    def test_builtin_entries_shared_across_other_config_axes(self):
        # Built-in generators consume only checkpoint_interval, so a
        # scheme change or a non-interval override must address the
        # same stored workload (that sharing is the point of the store).
        store = WorkloadStore("unused")
        a = small_config()
        b = small_config(detection_latency=9_999).with_scheme(
            Scheme.REBOUND)
        assert store.digest_for("ocean", 4, a, INTERVALS, 1) == \
            store.digest_for("ocean", 4, b, INTERVALS, 1)

    def test_corrupt_entry_rebuilt(self, tmp_path):
        store = WorkloadStore(tmp_path)
        config = small_config()
        store.get_or_build("fft", 4, config, INTERVALS, 1)
        digest = store.digest_for("fft", 4, config, INTERVALS, 1)
        store.path_for(digest).write_bytes(b"garbage")
        spec = store.get_or_build("fft", 4, config, INTERVALS, 1)
        assert spec == get_workload("fft", 4, config,
                                    intervals=INTERVALS, seed=1)

    def test_ensure_builds_once(self, tmp_path):
        store = WorkloadStore(tmp_path)
        config = small_config()
        digest = store.ensure("water_sp", 4, config, INTERVALS, 1)
        path = store.path_for(digest)
        mtime = path.stat().st_mtime_ns
        assert store.ensure("water_sp", 4, config, INTERVALS, 1) == digest
        assert path.stat().st_mtime_ns == mtime

    def test_generator_fingerprint_is_stable(self):
        assert generator_fingerprint() == generator_fingerprint()

    def test_generator_fingerprint_covers_the_compiled_loop(
            self, tmp_path, monkeypatch):
        """``synthetic.c`` is hashed: editing it re-keys every entry."""
        assert "synthetic.c" in {path.name for path in
                                 workload_store.generator_paths()}
        package = tmp_path / "workloads"
        shutil.copytree(workload_store._WORKLOADS_DIR, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(workload_store, "_WORKLOADS_DIR", package)
        monkeypatch.setattr(workload_store, "_GENERATOR_FINGERPRINT", None)
        before = generator_fingerprint()
        source = package / "synthetic.c"
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(workload_store, "_GENERATOR_FINGERPRINT", None)
        assert generator_fingerprint() != before

    def test_unwritable_store_disables_itself(self):
        store = WorkloadStore("/proc/no-such-dir/store")
        config = small_config()
        spec = store.get_or_build("fft", 4, config, INTERVALS, 1)
        assert spec.n_threads == 4          # build still succeeds
        assert store.disabled
        # Subsequent calls skip the disk entirely (no more miss I/O).
        store.get_or_build("fft", 4, config, INTERVALS, 1)
        assert store.misses == 1
        assert store.ensure("fft", 4, config, INTERVALS, 1) is None


class TestEngineIntegration:
    KEYS = [RunKey("water_sp", 4, scheme, INTERVALS, 1, SCALE)
            for scheme in (Scheme.NONE, Scheme.GLOBAL, Scheme.REBOUND)]

    def test_schemes_share_one_stored_workload(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        eng.run_many(self.KEYS)
        assert len(list(eng.workload_store.root.glob("*.wl"))) == 1
        # One load per task: NONE and Global share a prefix family
        # (one replica batch), Rebound runs alone.
        assert eng.workload_store.hits == len(eng._plan_tasks(self.KEYS)) \
            == 2

    def test_prebuild_failure_defers_to_the_run(self, tmp_path):
        # A builder that raises must not abort run_many from the
        # prebuild pass: the failure surfaces in the failing run itself,
        # and runs listed before it still complete.
        def broken(n_threads, config, intervals, seed):
            raise RuntimeError("builder exploded")

        tag = register_workload("custom_wl", broken,
                                fingerprint="broken-v1")
        try:
            # Two tagged keys share one store digest (same resolved
            # config; fault_at is not part of it), so the prebuild pass
            # really attempts — and must survive — the broken builder.
            bad = [RunKey(tag, 4, Scheme.NONE, INTERVALS, 1, SCALE),
                   RunKey(tag, 4, Scheme.NONE, INTERVALS, 1, SCALE,
                          fault_at=5_000.0)]
            eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                   use_disk_cache=True)
            with pytest.raises(RuntimeError, match="builder exploded"):
                eng.run_many(self.KEYS + bad)
            for key in self.KEYS:       # healthy siblings completed
                assert key in eng.memo
        finally:
            unregister_workload("custom_wl")

    def test_stored_results_match_storeless(self, tmp_path):
        stored = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True).run_many(self.KEYS)
        plain = ExperimentEngine(jobs=1,
                                 use_disk_cache=False).run_many(self.KEYS)
        for key in self.KEYS:
            assert stored[key] == plain[key], key

    def test_parallel_workers_read_the_store(self, tmp_path):
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True)
        got = eng.run_many(self.KEYS)
        assert len(list(eng.workload_store.root.glob("*.wl"))) == 1
        plain = ExperimentEngine(jobs=1,
                                 use_disk_cache=False).run_many(self.KEYS)
        for key in self.KEYS:
            assert got[key] == plain[key], key

    def test_no_cache_engine_has_no_store(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=False)
        assert eng.workload_store is None
        eng.run(self.KEYS[0])
        assert not (tmp_path / "workloads").exists()

    def test_execute_run_with_store_matches_without(self, tmp_path):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, INTERVALS, 1,
                     SCALE, io_every=2_000)
        store = WorkloadStore(tmp_path)
        assert execute_run(key, store) == execute_run(key)
        assert store.misses == 1


def _custom_builder(n_threads, config, intervals, seed):
    traces = []
    for tid in range(n_threads):
        trace = TraceBuilder()
        trace.compute(100 + seed)
        trace.store(tid)
        trace.load(tid)
        traces.append(trace.build())
    return WorkloadSpec(name="custom", traces=traces)


class TestRegistry:
    def test_builtins_resolve_to_plain_names(self):
        assert resolve_workload("ocean") == "ocean"
        assert workload_name("ocean") == "ocean"
        assert "ocean" in registered_workloads()

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("doom")

    def test_builtin_cannot_be_replaced(self):
        with pytest.raises(ValueError, match="built-in"):
            register_workload("ocean", _custom_builder)
        with pytest.raises(ValueError, match="built-in"):
            unregister_workload("ocean")

    def test_register_resolve_build_unregister(self):
        tag = register_workload("custom_wl", _custom_builder)
        try:
            assert tag == WorkloadTag("custom_wl")
            assert resolve_workload("custom_wl") is tag
            assert workload_name(tag) == "custom_wl"
            assert "custom_wl" in list_workloads()
            spec = get_workload(tag, 2, small_config(), 1.0, 3)
            assert spec.n_threads == 2
            assert spec.traces[0] == [(0, 103), (2, 0), (1, 0)]
        finally:
            unregister_workload("custom_wl")
        assert "custom_wl" not in list_workloads()
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload(tag, 2, small_config(), 1.0, 3)

    def test_duplicate_needs_replace(self):
        register_workload("custom_wl", _custom_builder)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_workload("custom_wl", _custom_builder)
            register_workload("custom_wl", _custom_builder, replace=True)
        finally:
            unregister_workload("custom_wl")

    def test_tag_pickles(self):
        tag = WorkloadTag("custom_wl")
        assert pickle.loads(pickle.dumps(tag)) == tag

    def test_tagged_runkey_executes(self):
        tag = register_workload("custom_wl", _custom_builder)
        try:
            eng = ExperimentEngine(jobs=1, use_disk_cache=False)
            stats = eng.run(RunKey(tag, 2, Scheme.NONE, 1.0, 1, SCALE))
            assert stats.total_instructions > 0
        finally:
            unregister_workload("custom_wl")

    def test_fingerprint_bump_invalidates_result_cache(self, tmp_path):
        # The code fingerprint cannot see out-of-tree generator sources,
        # so the registration fingerprint must be part of the *result*
        # cache identity: bumping it re-addresses cached SimStats.
        tag = register_workload("custom_wl", _custom_builder,
                                fingerprint="v1")
        key = RunKey(tag, 2, Scheme.NONE, 1.0, 1, SCALE)
        try:
            eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                   use_disk_cache=True)
            v1_path = eng._cache_path(key)
            register_workload("custom_wl", _custom_builder,
                              fingerprint="v2", replace=True)
            assert eng._cache_path(key) != v1_path
        finally:
            unregister_workload("custom_wl")
        # Built-in paths carry no workload-fingerprint component (the
        # pre-registry cache layout is pinned by golden tests).

    def test_unfingerprinted_workload_bypasses_result_cache(self,
                                                            tmp_path):
        # Without a fingerprint there is no invalidation signal for an
        # out-of-tree generator at all, so its results must be
        # recomputed every session, never served from disk.
        tag = register_workload("custom_wl", _custom_builder)
        key = RunKey(tag, 2, Scheme.NONE, 1.0, 1, SCALE)
        try:
            writer = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                      use_disk_cache=True)
            writer.run(key)
            assert list(tmp_path.glob("*.pkl")) == []   # nothing stored
            reader = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                      use_disk_cache=True)
            reader.run(key)
            assert len(reader.profile) == 1             # recomputed
            assert reader.disk_hits == 0
        finally:
            unregister_workload("custom_wl")

    def test_unfingerprinted_workload_bypasses_store(self, tmp_path):
        tag = register_workload("custom_wl", _custom_builder)
        try:
            assert workload_fingerprint(tag) is None
            store = WorkloadStore(tmp_path)
            spec = store.get_or_build(tag, 2, small_config(), 1.0, 1)
            assert spec.n_threads == 2
            assert list(tmp_path.iterdir()) == []
        finally:
            unregister_workload("custom_wl")

    def test_fingerprinted_workload_uses_store(self, tmp_path):
        tag = register_workload("custom_wl", _custom_builder,
                                fingerprint="custom-v1")
        try:
            store = WorkloadStore(tmp_path)
            cold = store.get_or_build(tag, 2, small_config(), 1.0, 1)
            warm = store.get_or_build(tag, 2, small_config(), 1.0, 1)
            assert store.hits == 1
            assert warm == cold
        finally:
            unregister_workload("custom_wl")

    def test_builtin_fingerprints_present(self):
        for name in list_workloads():
            assert workload_fingerprint(name) is not None

    def test_resolved_config_drives_store_key(self):
        # An overridden checkpoint_interval re-addresses the workload:
        # the store key must come from the *resolved* config.
        key = RunKey("ocean", 4, Scheme.NONE, INTERVALS, 1, SCALE)
        bigger = RunKey("ocean", 4, Scheme.NONE, INTERVALS, 1, SCALE,
                        overrides={"checkpoint_interval": 99_999})
        assert resolve_config(bigger).checkpoint_interval == 99_999
        store = WorkloadStore("unused")
        assert store.digest_for(key.app, 4, resolve_config(key),
                                INTERVALS, 1) != \
            store.digest_for(bigger.app, 4, resolve_config(bigger),
                             INTERVALS, 1)

    def test_registered_generator_keyed_by_full_config(self, tmp_path):
        # A registered builder receives the whole config, so the store
        # must assume any config field can shape its output: two sweep
        # points differing only in detection_latency get distinct
        # entries (a shared entry would silently serve the wrong
        # workload to one of them).
        def config_sensitive(n_threads, config, intervals, seed):
            trace = TraceBuilder()
            trace.compute(config.detection_latency)
            return WorkloadSpec(name="sens",
                                traces=[trace.build()] * n_threads)

        tag = register_workload("custom_wl", config_sensitive,
                                fingerprint="sens-v1")
        try:
            store = WorkloadStore(tmp_path)
            a = store.get_or_build(tag, 1, small_config(), 1.0, 1)
            b = store.get_or_build(
                tag, 1, small_config(detection_latency=7_777), 1.0, 1)
            assert store.hits == 0 and store.misses == 2
            assert a.traces[0] != b.traces[0]
            assert b.traces[0] == [(0, 7_777)]
        finally:
            unregister_workload("custom_wl")
