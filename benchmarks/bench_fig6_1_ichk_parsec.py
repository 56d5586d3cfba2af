"""Figure 6.1: average ICHK size, PARSEC + Apache at 24 processors."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_1_ichk_parsec(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_1", runner),
        kwargs={"n_cores": params.cores_parsec, "apps": params.parsec_apps},
        rounds=1, iterations=1)
    publish(result)
    # Shape check: Rebound's interaction sets are a strict subset of the
    # machine, and the locality-heavy codes stay small.
    fractions = [row[2] for row in result.rows]
    assert all(0.0 < frac <= 100.0 for frac in fractions)
    average = fractions[-1]
    assert average < 85.0, "ICHK must be well below global"
