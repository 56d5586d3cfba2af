"""Tests for the synthetic workload generators (Figure 4.3b substitutes)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import MachineConfig, Scheme
from repro.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    LOCK,
    OUTPUT,
    STORE,
    UNLOCK,
    trace_instruction_count,
)
from repro.workloads import (
    ALL_APPS,
    BARRIER_INTENSIVE,
    LOW_ICHK,
    PARSEC_APACHE,
    SPLASH2,
    get_profile,
    get_workload,
    inject_output_io,
    list_workloads,
)
from repro.workloads.profiles import AppProfile
from repro.workloads.synthetic import SyntheticWorkload, build_workload
from tests.synthetic_oracle import oracle_build


def small_config(**over):
    return MachineConfig.scaled(n_cores=8, scheme=Scheme.NONE, scale=200,
                                **over)


class TestRegistry:
    def test_all_18_applications_present(self):
        assert len(list_workloads()) == 18
        assert len(SPLASH2) == 13
        assert len(PARSEC_APACHE) == 5

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown application"):
            get_profile("doom")

    def test_suite_tags(self):
        assert get_profile("ocean").suite == "splash2"
        assert get_profile("ferret").suite == "parsec"
        assert get_profile("apache").suite == "server"

    def test_ocean_barrier_rate_matches_paper(self):
        # Section 6.1: Ocean has a barrier every ~50k instructions.
        assert get_profile("ocean").barrier_every == 50_000

    def test_barrier_intensive_subset(self):
        assert "ocean" in BARRIER_INTENSIVE
        assert "raytrace" not in BARRIER_INTENSIVE  # lock-bound, no barriers

    def test_low_ichk_subset(self):
        assert set(LOW_ICHK) <= set(ALL_APPS)


class TestGeneration:
    def test_deterministic_given_seed(self):
        config = small_config()
        a = get_workload("barnes", 4, config, intervals=1, seed=7)
        b = get_workload("barnes", 4, config, intervals=1, seed=7)
        assert a.traces == b.traces

    def test_seed_changes_traces(self):
        config = small_config()
        a = get_workload("barnes", 4, config, intervals=1, seed=7)
        b = get_workload("barnes", 4, config, intervals=1, seed=8)
        assert a.traces != b.traces

    def test_instruction_budget_respected(self):
        config = small_config()
        spec = get_workload("fmm", 4, config, intervals=2)
        target = 2 * config.checkpoint_interval
        for trace in spec.traces:
            count = trace_instruction_count(trace)
            # jitter + final block overshoot are bounded
            assert target * 0.9 <= count <= target * 1.8

    def test_barrier_counts_equal_across_threads(self):
        config = small_config()
        spec = get_workload("ocean", 6, config, intervals=2)
        counts = [sum(1 for r in t if r[0] == BARRIER)
                  for t in spec.traces]
        assert len(set(counts)) == 1
        assert counts[0] >= 1
        assert spec.barriers and spec.barriers[0].participants == \
            list(range(6))

    def test_lock_sections_well_formed(self):
        config = small_config()
        spec = get_workload("raytrace", 4, config, intervals=1)
        for trace in spec.traces:
            depth = 0
            for record in trace:
                if record[0] == LOCK:
                    depth += 1
                    assert depth == 1  # no nesting in generated code
                elif record[0] == UNLOCK:
                    depth -= 1
                    assert depth == 0
            assert depth == 0

    def test_lockless_profiles_have_no_locks(self):
        config = small_config()
        spec = get_workload("blackscholes", 4, config, intervals=1)
        assert spec.locks == []
        for trace in spec.traces:
            assert all(r[0] not in (LOCK, UNLOCK) for r in trace)

    def test_shared_reads_target_cluster_peers(self):
        config = small_config()
        from repro.workloads.synthetic import SyntheticWorkload
        workload = SyntheticWorkload(get_profile("blackscholes"), 8,
                                     config.checkpoint_interval, 1.0, 3)
        spec = workload.build()
        region_of = {}
        for tid in range(8):
            for line in workload.shared_regions[tid]:
                region_of[line] = tid
        for tid, trace in enumerate(spec.traces):
            cluster = set(workload.cluster_of(tid))
            for record in trace:
                if record[0] == LOAD and record[1] in region_of:
                    assert region_of[record[1]] in cluster

    def test_runs_on_machine(self):
        config = small_config()
        spec = get_workload("water_sp", 4, config, intervals=1)
        from repro.sim.machine import Machine
        stats = Machine(config, spec).run()
        assert stats.runtime > 0
        assert stats.total_instructions > 0


class TestIoInjection:
    def test_output_records_inserted_on_schedule(self):
        config = small_config()
        spec = get_workload("blackscholes", 4, config, intervals=2)
        injected = inject_output_io(spec, pid=0, every_instructions=5_000)
        outputs = sum(1 for r in injected.traces[0] if r[0] == OUTPUT)
        expected = trace_instruction_count(spec.traces[0]) // 5_000
        assert outputs >= max(1, expected - 1)
        # Other threads untouched.
        assert injected.traces[1] == spec.traces[1]

    def test_injection_preserves_instruction_order(self):
        config = small_config()
        spec = get_workload("apache", 4, config, intervals=1)
        injected = inject_output_io(spec, pid=0, every_instructions=2_000)
        original = [r for r in injected.traces[0] if r[0] != OUTPUT]
        # COMPUTE records may be split, but total work is identical.
        assert trace_instruction_count(original) == \
            trace_instruction_count(spec.traces[0])

    def test_bad_pid_rejected(self):
        config = small_config()
        spec = get_workload("apache", 4, config, intervals=1)
        with pytest.raises(ValueError):
            inject_output_io(spec, pid=99)


class TestFootprintScaling:
    def test_footprints_shrink_with_interval(self):
        from repro.workloads.synthetic import SyntheticWorkload
        profile = get_profile("ocean")
        big = SyntheticWorkload(profile, 4, 1_000_000, 1.0, 1)
        small = SyntheticWorkload(profile, 4, 20_000, 1.0, 1)
        assert small.private_lines < big.private_lines

    @pytest.mark.parametrize("scale,factor", [(10, 4), (20, 2)])
    def test_footprints_grow_below_scale_40(self, scale, factor):
        # Footprints follow the interval below scale 40 too: a scale-10
        # interval is 4x a scale-40 one, and so is every footprint.
        def lines(app, at):
            interval = MachineConfig.scaled(scale=at).checkpoint_interval
            gen = SyntheticWorkload(get_profile(app), 64, interval, 1.0, 1)
            return gen.private_lines, gen.shared_lines
        for app in ALL_APPS:
            for small, big in zip(lines(app, 40), lines(app, scale)):
                assert abs(big - factor * small) < factor, app

    def test_relative_footprints_preserve_table_order(self):
        # Ocean must stay the largest log producer, Water-Sp the smallest
        # (Table 6.1 ordering).
        ocean = get_profile("ocean")
        water = get_profile("water_sp")
        assert ocean.private_lines * ocean.write_frac > \
            5 * water.private_lines * water.write_frac


#: SHA-256 of ``build_workload(profile, n_threads, interval,
#: seed=seed).to_bytes()`` per ``(app, n_threads, interval, seed)``,
#: recorded from the pure-Python generator loop before it was compiled.
#: A change here is a change of every workload, and of every result.
GENERATOR_PINS = {
    ("barnes", 1, 2500, 1):
        "426dadab79caa0969d6a8602a83d604742df1b45b779fd2cfe005449d05d8fa8",
    ("cholesky", 1, 2500, 1):
        "cb33a24cd2aa9f87e72c8c24cee4268a4d4b1311f02dbcb54a07d05a8c8dcfe5",
    ("fft", 1, 2500, 1):
        "28b6a7399f8313feffb298b5526bca4bb1b40b5d37d264be8c3c0b02ceff60c1",
    ("fmm", 1, 2500, 1):
        "2c2bf2e642e523cf4f7ca28af62cc722213caf4104f83bddfe1a770d454a7f80",
    ("radix", 1, 2500, 1):
        "e26b220b7a5a96d6516b4f0ca3250655a68477dd877732f056c68cfa14ded3b7",
    ("lu_c", 1, 2500, 1):
        "efa87a306a6e7516b1a14e62abea8e6904c6bc0194a67b3f1c9845951f9c050e",
    ("lu_nc", 1, 2500, 1):
        "5bb910797f9a339179235c6e98345e55c7da39f37447bb8045680f410093e1a0",
    ("volrend", 1, 2500, 1):
        "c3178791a62f52b2fe82956d1a8d162b72e0d1f9486884a8e738636dc1885e86",
    ("water_sp", 1, 2500, 1):
        "4f5ee564e40f635ddeca307016b1e197d57697a939303e23cc9dd608607d268e",
    ("water_nsq", 1, 2500, 1):
        "554b77a473f2a15eb65ff836a67ef4aab6354b302c3aaddca276c3badae040b0",
    ("radiosity", 1, 2500, 1):
        "18eb474c96fbbfecb7d064afd7ab8986daa6271301fa3cb5cbbed96611cb89b8",
    ("ocean", 1, 2500, 1):
        "9a0b496a7ac1720c94634e2f68545f3a5015914dbfabcd48877b99fc865580b5",
    ("raytrace", 1, 2500, 1):
        "e1d94a88386d2388be529947476cba8a88e83a3bdd98968ac926b63fe9efbedb",
    ("blackscholes", 1, 2500, 1):
        "91b4e85fb2c6a07523bc646888de609e1090023fc8f78a410b01c64608f97cb5",
    ("fluidanimate", 1, 2500, 1):
        "2910b12b30083211f98539eb50c36d725623dd6a4c742ec2add311d7cdf9c05d",
    ("ferret", 1, 2500, 1):
        "37b84e3ee3eaa3a9cf4c766f5e53ef9957d5a469f59c6b90ea264ff832996521",
    ("streamcluster", 1, 2500, 1):
        "4385540a5dbdf1e240e92c441d8026339bfe34e64b0b8d63407694b587edefe6",
    ("apache", 1, 2500, 1):
        "6afc4f7511ab6e12cebb474f76e5d631d87ce5d5a1428a851a7ef3fb943e0e61",
    ("barnes", 16, 2500, 1):
        "7628f3870cb2d403a3f1cac90296b47b02ceb0bdc41add5bb51450d2aedafa9c",
    ("cholesky", 16, 2500, 1):
        "2280987fe29e4ad5bf761d7ab3a8ba0b50548a420d0134b3694f7a70894b0380",
    ("fft", 16, 2500, 1):
        "2d8a7e627f1e2dccd19c96b9773600e98f056f86888322fc44228d9663793c10",
    ("fmm", 16, 2500, 1):
        "1fd47d7e414fccdbb38834d0ed153c10775a623724fc622d083066b2b09d34cb",
    ("radix", 16, 2500, 1):
        "c08ba17189b8d7cf8bc0596cdb77fc3192c237e9e3edb6b773736fc51a5065d1",
    ("lu_c", 16, 2500, 1):
        "e4e7d74e6aa7cdd134007e57bfd334c55ac45dc48c86942082790a81f9c2d9fb",
    ("lu_nc", 16, 2500, 1):
        "03acf7c8268a3aec7a46fae94bbfe0fc78fc6842ceefbb8c8384b6df9e9623f2",
    ("volrend", 16, 2500, 1):
        "f6d03716a5738abaf5b13c4da7ae411fa5a9138f17f202fd52dad7a31451d79f",
    ("water_sp", 16, 2500, 1):
        "5d65de224fb6ba2699ff5b4561e46e09750862e8d30b79cd4dfefc0d24f74797",
    ("water_nsq", 16, 2500, 1):
        "d6aa751ef2da554ef87eec663bdd309912c166bb1537dda6e89488217883ee84",
    ("radiosity", 16, 2500, 1):
        "5da83982488b6c8dcea3c482a679002d027f548261f31da65376d8ab8fc84c06",
    ("ocean", 16, 2500, 1):
        "c821626086b72333165d636978bf847600a01d812f0eae31479e45d27bcd3e0d",
    ("raytrace", 16, 2500, 1):
        "a8c004513666d4f99d0e91a1ed68cb91b5c44d59c7d7d970c275b2ee52f449c5",
    ("blackscholes", 16, 2500, 1):
        "1c6bdc4da22f06cc8ab725c56d1068778df81e8a2b0cc1fc18ca548c64dccaf1",
    ("fluidanimate", 16, 2500, 1):
        "1eca52ccfc521126e951c0efc6a75657f372f62a6e4adecb489ad5668a8f0c7b",
    ("ferret", 16, 2500, 1):
        "c8f8fa5d3fddb990ae0a5bdcb1530ab99a6a18e5a7e9d39e9541e2cbac9029ce",
    ("streamcluster", 16, 2500, 1):
        "0033a341fa70c4a62a74b7c297524c2fc4529b86b9b220762750ea8d10c64466",
    ("apache", 16, 2500, 1):
        "9cf7bd54a18108404ca22b3669bcc49907c9973151d6017b35522a267b70db5b",
    ("barnes", 64, 100000, 1):
        "1dc5bacfe830f8f9dbf8c999d23d8e01e0f73624fcdcc087aff0b8c5acdbd7a1",
    ("cholesky", 64, 100000, 1):
        "37ad53bacbe7fa16fd00ae59a8de952ffce07fa47fe56f298cb317874921b9a4",
    ("fft", 64, 100000, 1):
        "40718d3c5c1dad5826f40bc08f52374191ee8d745e3798517030bdb63edee9b4",
    ("fmm", 64, 100000, 1):
        "e69bb2aea945da877010d55b74cddcf1103e0d6e4693526f903dad2f40ca7f9f",
    ("radix", 64, 100000, 1):
        "249e39256950d26bf4c3d6617cbed8b8835ce31f34f0a4f8f2a7bd3076c7f3b4",
    ("lu_c", 64, 100000, 1):
        "87dafeffbf020a8fec8e5824ea4ffdcead2586ec858429f6b3adeb24fe02187a",
    ("lu_nc", 64, 100000, 1):
        "d99765d69b6c892ad5ddbfb23612e255d5552755582783c1bf3e52b02785d828",
    ("volrend", 64, 100000, 1):
        "4c6bdd8faacd0b53bf74db7f918abf8a7dce28c1d06c0caeaedaf04460a73306",
    ("water_sp", 64, 100000, 1):
        "4a502e19c8ee281e7f27fe4ae44770140af1f987d49f0a94c6debb24956432a3",
    ("water_nsq", 64, 100000, 1):
        "e19cdf5847da990be7eea63009ee1e19f6c183c9fb8413aa1289e0671164ee91",
    ("radiosity", 64, 100000, 1):
        "88c8fcb0476e92c798c6f28426a1fd5f30bacfd9bc0a5564751fd43d8373d832",
    ("ocean", 64, 100000, 1):
        "5d1f03dd8ad99da7fa00c875da451e171f23c59a98487c9c206bb76b5bad85f3",
    ("raytrace", 64, 100000, 1):
        "c03e2f630f12cbb918cadc82c5d3b3bcfd9fdc22aa5ac8562f22ea21100d55ba",
    ("blackscholes", 64, 100000, 1):
        "719179655d1c8556be6a5c1334e3bff7e919c8c8e6d2363b76aca18d407214b0",
    ("fluidanimate", 64, 100000, 1):
        "6354776f79edf9770bc12937bb66289e78c7c94b0aa5c1626b81b5bb3be550fd",
    ("ferret", 64, 100000, 1):
        "af18f78474ca92964c669944cd2b7d78aa2f2fc6ad79db53521d8c39ac3f2932",
    ("streamcluster", 64, 100000, 1):
        "f62b8f847e796d88032b4fdd4978b5df9c7c16cfbfd6bc90078bed838755d22a",
    ("apache", 64, 100000, 1):
        "9052484e45c0c4ffa4ebc32beb8761df89cc40a2087b46bdcc74f73d0eb9a327",
}


class TestGeneratorPins:
    @pytest.mark.parametrize("case", sorted(GENERATOR_PINS),
                             ids=lambda case: "-".join(map(str, case)))
    def test_generator_bytes_are_pinned(self, case):
        app, n_threads, interval, seed = case
        spec = build_workload(get_profile(app), n_threads, interval,
                              seed=seed)
        assert hashlib.sha256(spec.to_bytes()).hexdigest() == \
            GENERATOR_PINS[case]


def _profile(**fields) -> AppProfile:
    base = dict(name="edge", suite="splash2", barrier_every=None,
                cluster_frac=0.5, lock_rate=0.0, lock_scope="none",
                private_lines=64, shared_lines=16, shared_frac=0.3,
                write_frac=0.3, mem_every=20, reuse=0.6)
    base.update(fields)
    return AppProfile(**base)


def _assert_parity(profile, n_threads, interval, intervals, seed):
    compiled = SyntheticWorkload(profile, n_threads, interval, intervals,
                                 seed).build()
    oracle = oracle_build(SyntheticWorkload(profile, n_threads, interval,
                                            intervals, seed))
    assert compiled.to_bytes() == oracle.to_bytes()
    assert [trace.n_instructions for trace in compiled.traces] == \
        [trace.n_instructions for trace in oracle.traces]


_FRACTION = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(0.0, 1.0, allow_nan=False))


class TestGeneratorParity:
    """The compiled loop against the Python oracle, draw for draw."""

    @pytest.mark.parametrize("fields, n_threads", [
        # randint(1, 1): every gap is one instruction.
        (dict(mem_every=1), 4),
        # No peers, so no shared draw at all.
        (dict(shared_frac=1.0, reuse=1.0), 1),
        (dict(lock_scope="global", lock_rate=2.0), 6),
        (dict(lock_scope="cluster", lock_rate=2.0, cluster_frac=0.3), 7),
        (dict(barrier_every=20_000, mem_every=3), 5),
        # Every access is shared: the recent list stays empty.
        (dict(shared_frac=1.0, reuse=1.0), 3),
        (dict(shared_frac=0.0, reuse=0.0, write_frac=1.0), 2),
    ], ids=["mem_every_1", "single_thread", "global_locks",
            "cluster_locks", "barriers", "empty_recent", "private_only"])
    def test_edges(self, fields, n_threads):
        _assert_parity(_profile(**fields), n_threads, 3_000, 2.0, 5)

    @settings(max_examples=60, deadline=None)
    @given(n_threads=st.integers(1, 10),
           barrier_every=st.one_of(st.none(), st.integers(1, 400_000)),
           cluster_frac=st.floats(0.0, 1.0),
           lock_rate=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
           lock_scope=st.sampled_from(["none", "cluster", "global"]),
           private_lines=st.integers(1, 300),
           shared_lines=st.integers(1, 80),
           shared_frac=_FRACTION, write_frac=_FRACTION, reuse=_FRACTION,
           mem_every=st.integers(1, 120),
           interval=st.integers(50, 6_000),
           intervals=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**40))
    def test_random_profiles(self, n_threads, barrier_every, cluster_frac,
                             lock_rate, lock_scope, private_lines,
                             shared_lines, shared_frac, write_frac, reuse,
                             mem_every, interval, intervals, seed):
        profile = _profile(
            barrier_every=barrier_every, cluster_frac=cluster_frac,
            lock_rate=lock_rate, lock_scope=lock_scope,
            private_lines=private_lines, shared_lines=shared_lines,
            shared_frac=shared_frac, write_frac=write_frac, reuse=reuse,
            mem_every=mem_every)
        _assert_parity(profile, n_threads, interval, intervals, seed)

    def test_draw_bound_of_2_to_the_32_is_refused(self):
        """A draw that would need two words raises rather than
        diverging from Python's stream (the jitter bound here)."""
        workload = SyntheticWorkload(_profile(), 2, 3 * 2**32, 1e-9, 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            workload.build()

    def test_huge_lock_gap_is_refused(self):
        profile = _profile(lock_scope="global", lock_rate=1e-7)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            SyntheticWorkload(profile, 2, 3_000, 1.0, 1).build()

    def test_empty_gap_range_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            SyntheticWorkload(_profile(mem_every=0), 2, 3_000, 1.0,
                              1).build()
