"""Tests for the ``python -m repro.harness`` command-line entry point."""

import pytest

from repro.harness.__main__ import main


class TestCli:
    def test_quick_single_experiment(self, capsys):
        code = main(["fig6_1", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6.1" in out
        assert "Rebound" in out
        assert "took" in out

    def test_unknown_experiment_fails(self):
        with pytest.raises(KeyError):
            main(["fig9_9", "--quick"])

    def test_custom_scale_flags(self, capsys):
        code = main(["fig6_1", "--quick", "--scale", "300",
                     "--intervals", "1.5"])
        assert code == 0
        assert "Figure 6.1" in capsys.readouterr().out


class TestEngineFlags:
    def test_plan_banner_and_no_cache(self, capsys):
        code = main(["fig6_1", "--quick", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[plan]" in out
        assert "cache=off" in out

    def test_profile_table(self, capsys, tmp_path):
        code = main(["fig6_1", "--quick", "--profile",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-run wall clock" in out
        assert "wall s" in out
        # Sweep-disambiguating columns (cluster, overrides) are present.
        assert "cluster" in out
        assert "overrides" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_profile_prints_loop_counters(self, capsys, tmp_path, jobs):
        # The counters ride back from the workers with each task.
        code = main(["fig6_1", "--quick", "--profile", "-j", jobs,
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[loop]")]
        assert "records/residency=" in line
        assert "pops=" in line and "returns.done=" in line
        # A session served from the disk cache ran no loop.
        main(["fig6_1", "--quick", "--profile", "-j", jobs,
              "--cache-dir", str(tmp_path)])
        assert "[loop]" not in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_profile_prints_variant_forks(self, capsys, tmp_path, jobs):
        # Fig 6.3 runs two prefix families per app; the leaders' forks
        # at their first scheme return ride back from the workers.
        code = main(["fig6_3", "--quick", "--profile", "-j", jobs,
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[loop]" in out
        line, = [line for line in out.splitlines()
                 if line.startswith("[batch]")]
        # NONE and Global_DWB beside Global, Rebound beside
        # Rebound_NoDWB, for each of the three quick apps.
        assert line == "[batch] variant_forks=9"

    def test_jobs_flag_parallel_run(self, capsys, tmp_path):
        code = main(["fig6_1", "--quick", "-j", "2",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "Figure 6.1" in capsys.readouterr().out

    def test_disk_cache_replays_second_session(self, capsys, tmp_path):
        main(["fig6_1", "--quick", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["fig6_1", "--quick", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 from disk cache" in out

class TestSweepCli:
    def test_quick_sweep_with_axis(self, capsys, tmp_path):
        code = main(["sweep", "--quick",
                     "--axis", "detection_latency=2000,10000",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep over detection_latency" in out
        assert "2 computed" in out

    def test_sweep_replays_from_disk_cache(self, capsys, tmp_path):
        args = ["sweep", "--quick", "--axis", "detection_latency=2000",
                "--cache-dir", str(tmp_path)]
        main(args)
        capsys.readouterr()
        code = main(args)
        assert code == 0
        assert "0 computed, 1 from disk cache" in capsys.readouterr().out

    def test_sweep_requires_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--quick"])

    def test_sweep_rejects_unknown_axis(self, capsys):
        with pytest.raises(ValueError, match="unknown config field"):
            main(["sweep", "--quick", "--axis", "bogus=1", "--no-cache"])

    def test_sweep_rejects_duplicate_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--quick", "--no-cache",
                  "--axis", "detection_latency=2000",
                  "--axis", "detection_latency=10000"])
        assert "given twice" in capsys.readouterr().err

    def test_sweep_multi_axis_variants(self, capsys, tmp_path):
        code = main(["sweep", "--quick",
                     "--axis", "detection_latency=2000,10000",
                     "--axis", "l1.size_bytes=512,1024",
                     "--schemes", "global", "rebound@2",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "l1.size_bytes" in out
        assert "rebound@2" in out
        assert "8 runs" in out

    def test_workloads_flag_resolves_registry_names(self, capsys,
                                                    tmp_path):
        code = main(["sweep", "--quick",
                     "--axis", "detection_latency=2000",
                     "--workloads", "water_sp",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "water_sp" in capsys.readouterr().out

    def test_workloads_flag_rejects_unknown_name(self, capsys):
        with pytest.raises(ValueError, match="unknown workload"):
            main(["sweep", "--quick", "--no-cache",
                  "--axis", "detection_latency=2000",
                  "--workloads", "doom"])

    def test_l_sensitivity_experiment(self, capsys, tmp_path):
        code = main(["fig_l_sensitivity", "--quick",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "L sensitivity" in out
        assert "L/interval" in out


class TestServeCli:
    def _submit(self, spool, capsys):
        code = main(["serve", "submit", "--quick", "--seeds", "1",
                     "--apps", "blackscholes", "--schemes", "rebound",
                     "--label", "cli", "--spool", str(spool)])
        assert code == 0
        return capsys.readouterr().out.strip().splitlines()[-1]

    def test_submit_serve_status_summary_lifecycle(self, capsys,
                                                   tmp_path):
        spool = tmp_path / "spool"
        job = self._submit(spool, capsys)
        code = main(["serve", "status", job, "--spool", str(spool)])
        assert code == 0
        assert "queued" in capsys.readouterr().out
        code = main(["serve", "start", "--drain", "--spool", str(spool),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "1 job(s) executed" in capsys.readouterr().out
        code = main(["serve", "drain", "--spool", str(spool),
                     "--timeout", "5"])
        assert code == 0
        capsys.readouterr()
        code = main(["serve", "summary", job, "--spool", str(spool),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "Journal summary" in capsys.readouterr().out

    def test_cancel_and_unknown_job(self, capsys, tmp_path):
        spool = tmp_path / "spool"
        job = self._submit(spool, capsys)
        assert main(["serve", "cancel", job,
                     "--spool", str(spool)]) == 0
        capsys.readouterr()
        assert main(["serve", "status", job, "--spool", str(spool)]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["serve", "status", "nope",
                     "--spool", str(spool)]) == 1
        assert main(["serve", "cancel", "nope",
                     "--spool", str(spool)]) == 1
        # Nothing landed, so there is nothing to summarize.
        assert main(["serve", "summary", job, "--spool", str(spool),
                     "--cache-dir", str(tmp_path / "cache")]) == 1

    def test_campaign_routes_through_service(self, capsys, tmp_path):
        code = main(["campaign", "--serve", "--seeds", "1",
                     "--apps", "blackscholes", "--cores", "4",
                     "--schemes", "rebound", "--scale", "300",
                     "--intervals", "1.5",
                     "--spool", str(tmp_path / "spool"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[serve] job" in out
        assert "Figure 6.9" in out

    def test_sweep_routes_through_service(self, capsys, tmp_path):
        code = main(["sweep", "--quick", "--serve",
                     "--axis", "detection_latency=2000",
                     "--spool", str(tmp_path / "spool"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[serve] job" in out
        assert "Sweep over detection_latency" in out


class TestPlanDedup:
    def test_cross_figure_dedup_in_plan(self, capsys, tmp_path):
        # fig6_3 and fig6_5 share every scheme run; the union must
        # shrink versus the naive plan total.
        code = main(["fig6_3", "fig6_5", "--quick", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        plan_line = next(l for l in out.splitlines() if "planned runs"
                         in l)
        planned = int(plan_line.split("experiment(s):")[1].split()[0])
        unique = int(plan_line.split("unique")[0].split(",")[-1])
        assert unique < planned
