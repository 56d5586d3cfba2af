"""Tests for the experiment harness (runner caching + figures)."""

import pytest

from repro.harness import FIGURES, Runner, format_table, run_experiment
from repro.params import Scheme


@pytest.fixture(scope="module")
def quick_runner():
    # Tiny shared runner: 8 cores, short runs, heavily scaled down.
    return Runner(scale=200, intervals=1.5)


APPS = ["blackscholes", "water_sp"]


class TestRunner:
    def test_results_are_cached(self, quick_runner):
        first = quick_runner.run("blackscholes", 4, Scheme.REBOUND)
        second = quick_runner.run("blackscholes", 4, Scheme.REBOUND)
        assert first is second

    def test_different_schemes_not_conflated(self, quick_runner):
        rebound = quick_runner.run("blackscholes", 4, Scheme.REBOUND)
        glob = quick_runner.run("blackscholes", 4, Scheme.GLOBAL)
        assert rebound is not glob

    def test_overhead_positive_for_checkpointing(self, quick_runner):
        overhead = quick_runner.overhead("blackscholes", 4, Scheme.GLOBAL)
        assert overhead > -0.05  # tiny runs can be noisy, not negative


class TestDrivers:
    def test_fig6_1(self, quick_runner):
        result = run_experiment("fig6_1", quick_runner, n_cores=4,
                                apps=APPS)
        assert len(result.rows) == len(APPS) + 1
        assert "Rebound" in result.headers[-1]
        assert result.render()

    def test_fig6_3(self, quick_runner):
        result = run_experiment("fig6_3", quick_runner, apps=APPS,
                                n_cores=4)
        assert result.rows[-1][0] == "average"
        assert len(result.headers) == 5

    def test_fig6_7(self, quick_runner):
        result = run_experiment("fig6_7", quick_runner,
                                apps=["blackscholes"], n_cores=4)
        values = result.rows[0][1:]
        assert all(isinstance(v, float) for v in values)
        cells = result.render().splitlines()[3].split()[1:]
        assert all(cell.endswith("%") for cell in cells)

    def test_table6_1(self, quick_runner):
        result = run_experiment("table6_1", quick_runner, apps=APPS,
                                splash_cores=4, parsec_cores=4)
        assert len(result.rows) == len(APPS) + 1

    def test_run_experiment_by_name(self, quick_runner):
        result = run_experiment("fig6_1", quick_runner, n_cores=4,
                                apps=APPS)
        assert result.experiment.startswith("Figure 6.1")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig9_9")

    def test_all_experiments_registered(self):
        # In the CLI's default (paper) order.
        assert list(FIGURES) == [
            "fig6_1", "fig6_2", "fig6_3", "fig6_4", "fig6_5",
            "fig6_6", "fig6_7", "fig6_8", "fig6_9",
            "fig_l_sensitivity", "table6_1"]


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bbb"], [["x", 1.5], ["yy", 10.25]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text and "10.25" in text
