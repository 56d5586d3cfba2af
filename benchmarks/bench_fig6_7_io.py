"""Figure 6.7: effect of output I/O on the effective checkpoint interval."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_7_io(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_7", runner),
        kwargs={"apps": params.low_ichk_apps,
                "n_cores": params.cores_splash},
        rounds=1, iterations=1)
    publish(result)
    _, avg_global, avg_rebound = result.rows[-1]
    # Global-I/O collapses everyone's interval toward the I/O period
    # (~50%); Rebound isolates the I/O processor's checkpoints.
    assert avg_global < 70.0
    assert avg_rebound > avg_global
