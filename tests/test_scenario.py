"""Tests for the scenario layer: config overrides, sweep specs, and
cache-key stability.

Three guarantees are pinned here:

* ``Overrides`` is a frozen, hashable, canonically-ordered mapping that
  validates field names at construction and applies cleanly (including
  dotted nested fields) on top of ``MachineConfig.scaled``.
* The disk-cache file name of an override-free ``RunKey`` is *golden* —
  byte-identical to the pre-scenario layout — and the overridden layout
  is golden too, so any future key-layout change invalidates the cache
  intentionally, not accidentally.
* The ``SweepSpec``-based planners enumerate exactly the RunKey sets the
  hand-written loop bodies they replaced produced.
"""

import math
import pickle

import pytest

import repro.harness.engine as engine_mod
from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.experiments import (
    BARRIER_SCHEMES,
    BREAKDOWN_SCHEMES,
    CAMPAIGN_VARIANTS,
    OVERHEAD_SCHEMES,
    POWER_SCHEMES,
    SCALABILITY_SCHEMES,
    _campaign_plans,
    _io_every,
    _recovery_fault_at,
    plan_fig6_3,
    plan_fig6_4,
    plan_fig6_5,
    plan_fig6_6,
    plan_fig6_7,
    plan_fig6_8,
    plan_fig6_9,
    plan_fig_l_sensitivity,
)
from repro.harness.runner import Runner
from repro.harness.scenario import (
    EMPTY_OVERRIDES,
    Overrides,
    SweepSpec,
    coerce_value,
    parse_axis,
)
from repro.params import Scheme
from repro.sim.machine import Machine
from repro.workloads import SPLASH2


class TestOverrides:
    def test_canonical_order_and_equality(self):
        a = Overrides({"memory_cycles": 80, "detection_latency": 9})
        b = Overrides({"detection_latency": 9, "memory_cycles": 80})
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert list(a) == ["detection_latency", "memory_cycles"]

    def test_kwargs_and_mapping_merge(self):
        o = Overrides({"memory_cycles": 80}, detection_latency=9)
        assert o["memory_cycles"] == 80
        assert o["detection_latency"] == 9
        assert len(o) == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            Overrides({"not_a_field": 1})

    def test_reserved_fields_rejected(self):
        for name, owner in (("n_cores", "RunKey.n_cores"),
                            ("scheme", "RunKey.scheme"),
                            ("dep_cluster_size", "RunKey.cluster")):
            with pytest.raises(ValueError, match=owner):
                Overrides({name: 1})

    def test_nested_field_validation(self):
        Overrides({"l1.size_bytes": 2048})           # fine
        with pytest.raises(ValueError, match="unknown field"):
            Overrides({"l1.bogus": 1})
        with pytest.raises(ValueError, match="not a nested config"):
            Overrides({"memory_cycles.x": 1})

    def test_wrongly_typed_value_rejected(self):
        # Fails at plan time, not as an arithmetic TypeError deep
        # inside a pool worker.
        with pytest.raises(ValueError, match="expected int, got list"):
            Overrides({"detection_latency": [1, 2]})
        with pytest.raises(ValueError, match="expected int, got str"):
            Overrides({"detection_latency": "10000"})
        with pytest.raises(ValueError, match="expected CacheConfig"):
            Overrides({"l1": "512"})
        with pytest.raises(ValueError, match="expected bool"):
            Overrides({"check_coherence": 1})
        # float fields accept ints; int fields reject bools.
        Overrides({"barrier_interest_fraction": 1})
        with pytest.raises(ValueError, match="expected int, got bool"):
            Overrides({"detection_latency": True})

    def test_immutable(self):
        o = Overrides(detection_latency=9)
        with pytest.raises(AttributeError):
            o._items = ()
        with pytest.raises(TypeError):
            o["detection_latency"] = 10

    def test_pickle_round_trip(self):
        o = Overrides({"l1.size_bytes": 2048, "memory_cycles": 80})
        clone = pickle.loads(pickle.dumps(o))
        assert clone == o
        assert hash(clone) == hash(o)

    def test_apply_flat_and_nested(self):
        from repro.params import MachineConfig
        config = MachineConfig.scaled(n_cores=4, scale=100)
        o = Overrides({"detection_latency": 9999, "l1.size_bytes": 2048})
        out = o.apply(config)
        assert out.detection_latency == 9999
        assert out.l1.size_bytes == 2048
        assert out.l1.assoc == config.l1.assoc        # untouched sibling
        assert out.memory_cycles == config.memory_cycles
        assert config.detection_latency != 9999       # original frozen

    def test_apply_empty_is_identity(self):
        from repro.params import MachineConfig
        config = MachineConfig.scaled(n_cores=4)
        assert EMPTY_OVERRIDES.apply(config) is config


class TestAxisParsing:
    def test_parse_axis_types(self):
        assert parse_axis("detection_latency=2000,10000") == \
            ("detection_latency", (2000, 10000))
        name, values = parse_axis("barrier_interest_fraction=0.5,0.9")
        assert values == (0.5, 0.9)
        assert parse_axis("track_values=true,false") == \
            ("track_values", (True, False))

    def test_parse_axis_rejects_malformed(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_axis("detection_latency")
        with pytest.raises(ValueError, match="unknown config field"):
            parse_axis("bogus=1")

    def test_coerce_nested(self):
        assert coerce_value("l1.size_bytes", "2048") == 2048
        with pytest.raises(ValueError, match="not a boolean"):
            coerce_value("check_coherence", "maybe")

    def test_non_scalar_field_rejected_at_parse_time(self):
        # Sweeping l1 itself (a nested CacheConfig) from a CLI token
        # must fail at plan time, not as a type crash in a pool worker.
        with pytest.raises(ValueError, match="scalar subfields"):
            parse_axis("l1=512")

    def test_runkey_dimension_axes(self):
        assert parse_axis("intervals=1.5,3.0") == \
            ("intervals", (1.5, 3.0))
        assert parse_axis("io_every=500,1000") == \
            ("io_every", (500, 1000))
        assert parse_axis("cluster=1,4") == ("cluster", (1, 4))
        assert parse_axis("seed=1,2") == ("seed", (1, 2))
        for name, flag in (("app", "--apps"), ("n_cores", "--cores"),
                           ("scheme", "--schemes")):
            with pytest.raises(ValueError, match=flag):
                parse_axis(f"{name}=x")


class TestRunKeyOverrides:
    def test_default_is_empty_overrides(self):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300)
        assert key.overrides == EMPTY_OVERRIDES
        assert not key.overrides

    def test_plain_mapping_normalized(self):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                     overrides={"detection_latency": 10_000})
        assert isinstance(key.overrides, Overrides)
        same = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                      overrides=Overrides(detection_latency=10_000))
        assert key == same
        assert hash(key) == hash(same)

    def test_invalid_override_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="unknown config field"):
            RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                   overrides={"bogus": 1})

    def test_execute_run_applies_overrides(self):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                     overrides={"detection_latency": 7777,
                                "l1.size_bytes": 1024})
        stats = execute_run(key)
        assert stats.config.detection_latency == 7777
        assert stats.config.l1.size_bytes == 1024

    def test_override_changes_cache_identity(self):
        base = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300)
        over = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                      overrides={"detection_latency": 10_000})
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        assert eng._cache_path(base) != eng._cache_path(over)

    def test_pickle_round_trip(self):
        key = RunKey("ocean", 8, Scheme.GLOBAL, 3.0, 1, 40,
                     overrides={"memory_cycles": 80})
        assert pickle.loads(pickle.dumps(key)) == key


class TestCacheKeyGolden:
    """Golden cache file names: a future change to the RunKey layout must
    fail here, so the on-disk cache is invalidated intentionally."""

    def test_override_free_path_is_golden(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "_FINGERPRINT",
                            "golden-fingerprint")
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300)
        assert eng._cache_path(key).name == (
            "9b1bd6eed5c044979ddb4bb90f73001d"
            "b188c3b9f98e425598dead09a2afcad5.pkl")

    def test_overridden_path_is_golden(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "_FINGERPRINT",
                            "golden-fingerprint")
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                     overrides={"detection_latency": 10_000})
        assert eng._cache_path(key).name == (
            "3a7d7dfd01d7f37ae3e55d2398072f57"
            "48ef0bba0babc571705862e90682c6a4.pkl")


class TestEngineWithOverrides:
    def test_disk_cache_replay(self, tmp_path, monkeypatch):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                     overrides={"detection_latency": 10_000})
        writer = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        first = writer.run(key)
        monkeypatch.setattr(engine_mod, "execute_batch",
                            lambda keys, store: pytest.fail(
                                f"recomputed {keys}"))
        reader = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        assert reader.run(key) == first
        assert reader.disk_hits == 1

    def test_parallel_matches_serial(self):
        keys = [RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                       overrides={"detection_latency": latency})
                for latency in (2_000, 10_000)]
        serial = ExperimentEngine(jobs=1, use_disk_cache=False)
        parallel = ExperimentEngine(jobs=2, use_disk_cache=False)
        expect = serial.run_many(keys)
        got = parallel.run_many(keys)
        for key in keys:
            assert got[key] == expect[key], key


class TestSweepSpec:
    def test_grid_requires_core_axes(self):
        with pytest.raises(ValueError, match="'app' axis"):
            SweepSpec.grid(n_cores=4, scheme=Scheme.REBOUND)

    def test_unknown_axis_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="unknown config field"):
            SweepSpec.grid(app="x", n_cores=4, scheme=Scheme.REBOUND,
                           bogus=[1, 2])

    def test_product_order_first_axis_outermost(self):
        runner = Runner(scale=300, intervals=1.5)
        spec = SweepSpec.grid(app=["a", "b"], n_cores=4,
                              scheme=[Scheme.NONE, Scheme.REBOUND])
        got = [(k.app, k.scheme) for k in spec.keys(runner)]
        assert got == [("a", Scheme.NONE), ("a", Scheme.REBOUND),
                       ("b", Scheme.NONE), ("b", Scheme.REBOUND)]

    def test_union_and_sum(self):
        runner = Runner(scale=300, intervals=1.5)
        one = SweepSpec.grid(app="a", n_cores=4, scheme=Scheme.NONE)
        two = SweepSpec.grid(app="b", n_cores=8, scheme=Scheme.REBOUND)
        spec = sum([one, two], SweepSpec())
        assert spec.n_points == 2
        keys = spec.keys(runner)
        assert [k.app for k in keys] == ["a", "b"]
        assert (0 + one).keys(runner) == one.keys(runner)

    def test_override_axis_lands_in_runkey(self):
        runner = Runner(scale=300, intervals=1.5)
        spec = SweepSpec.grid(app="a", n_cores=4, scheme=Scheme.REBOUND,
                              detection_latency=[2_000, 10_000])
        keys = spec.keys(runner)
        assert [k.overrides["detection_latency"] for k in keys] == \
            [2_000, 10_000]

    def test_seed_axis_sweeps_workload_seed(self):
        runner = Runner(scale=300, intervals=1.5, seed=1)
        spec = SweepSpec.grid(app="a", n_cores=4, scheme=Scheme.REBOUND,
                              seed=[1, 2, 3])
        keys = spec.keys(runner)
        assert [k.seed for k in keys] == [1, 2, 3]
        assert all(not k.overrides for k in keys)

    def test_keyed_points_expose_axis_values(self):
        runner = Runner(scale=300, intervals=1.5)
        spec = SweepSpec.grid(app="a", n_cores=4, scheme=Scheme.REBOUND,
                              memory_cycles=[100, 200])
        points = spec.keyed_points(runner)
        assert [p["memory_cycles"] for _, p in points] == [100, 200]
        assert spec.axis_names() == ["app", "n_cores", "scheme",
                                     "memory_cycles"]


class TestPlannerEquivalence:
    """The SweepSpec planners must produce the same RunKey sets (same
    cache paths) as the hand-written loop bodies they replaced."""

    @pytest.fixture()
    def runner(self):
        return Runner(scale=100, intervals=2.0)

    def test_fig6_3(self, runner):
        apps = SPLASH2[:3]
        expect = [runner.key(app, 8, scheme) for app in apps
                  for scheme in (*OVERHEAD_SCHEMES, Scheme.NONE)]
        assert plan_fig6_3(runner, apps, 8) == expect

    def test_fig6_4(self, runner):
        apps = ["ocean", "barnes"]
        expect = [runner.key(app, 8, scheme) for app in apps
                  for scheme in (*BARRIER_SCHEMES, Scheme.NONE)]
        assert plan_fig6_4(runner, apps, 8) == expect

    def test_fig6_5(self, runner):
        apps = ["ocean", "blackscholes", "barnes"]
        expect = []
        for app in apps:
            n_cores = 8 if app in SPLASH2 else 4
            expect.extend(runner.key(app, n_cores, scheme)
                          for scheme in BREAKDOWN_SCHEMES)
        assert plan_fig6_5(runner, apps, 8, 4) == expect

    def test_fig6_6(self, runner):
        apps = SPLASH2[:3]
        sizes = (4, 8)
        expect = []
        for n_cores in sizes:
            fault_at = _recovery_fault_at(runner, n_cores)
            for scheme in SCALABILITY_SCHEMES:
                for app in apps:
                    expect.append(runner.key(app, n_cores, scheme))
                    expect.append(runner.key(app, n_cores, Scheme.NONE))
                    expect.append(runner.key(app, n_cores, scheme,
                                             fault_at=fault_at))
        assert set(plan_fig6_6(runner, apps, sizes)) == set(expect)

    def test_fig6_7(self, runner):
        apps = ["blackscholes"]
        io_every = _io_every(runner, 8)
        expect = []
        for app in apps:
            for scheme in (Scheme.GLOBAL, Scheme.REBOUND):
                expect.append(runner.key(app, 8, scheme,
                                         io_every=io_every))
                expect.append(runner.key(app, 8, scheme))
        assert plan_fig6_7(runner, apps, 8) == expect

    def test_fig6_8(self, runner):
        apps = SPLASH2[:3]
        expect = [runner.key(app, 8, scheme)
                  for scheme in POWER_SCHEMES for app in apps]
        assert plan_fig6_8(runner, apps, 8) == expect

    def test_fig6_9(self, runner):
        apps = ["blackscholes"]
        sizes = (4, 8)
        expect = []
        for n_cores in sizes:
            plans = _campaign_plans(runner, n_cores, 2, 100, 1.0)
            for variant in CAMPAIGN_VARIANTS:
                for app in apps:
                    expect.extend(
                        runner.key(app, n_cores, variant.scheme,
                                   fault_plan=plan,
                                   cluster=variant.cluster)
                        for plan in plans)
        assert plan_fig6_9(runner, apps, sizes, n_seeds=2) == expect

    def test_fig_l_sensitivity_keys_carry_overrides(self, runner):
        keys = plan_fig_l_sensitivity(runner, ["blackscholes"], 4,
                                      n_seeds=1)
        assert keys
        latencies = {k.overrides["detection_latency"] for k in keys}
        assert len(latencies) == 3
        assert all(k.fault_plan is not None for k in keys)


class TestLSensitivityShape:
    def test_mean_recovery_latency_non_decreasing_in_l(self):
        from repro.harness.experiments import fig_l_sensitivity
        runner = Runner(scale=100, intervals=2.0)
        result = fig_l_sensitivity(runner, apps=["blackscholes"],
                                   n_cores=4, n_seeds=2)
        by_scheme: dict[str, list[float]] = {}
        for row in result.rows:
            scheme, mean_recovery = row[2], row[3]
            if mean_recovery != "-":
                by_scheme.setdefault(scheme, []).append(
                    float(mean_recovery.replace(",", "")))
        assert by_scheme, "no recoveries happened at all"
        for scheme, latencies in by_scheme.items():
            assert latencies == sorted(latencies), \
                f"{scheme}: recovery latency not monotone in L: {latencies}"


class TestMachineWithOverriddenConfig:
    def test_detection_latency_reaches_fault_injector(self):
        key = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                     overrides={"detection_latency": 4_321})
        from repro.params import MachineConfig
        config = MachineConfig.scaled(n_cores=4, scheme=Scheme.REBOUND,
                                      scale=300)
        config = key.overrides.apply(config)
        from repro.workloads import get_workload
        workload = get_workload("blackscholes", 4, config,
                                intervals=1.5, seed=1)
        machine = Machine(config, workload, faults=[(100.0, 0)])
        assert machine.faults.detection_latency == 4_321
