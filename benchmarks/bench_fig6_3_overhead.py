"""Figure 6.3: error-free checkpointing overhead for all four schemes."""

from conftest import publish

from repro.harness.experiments import run_experiment


def _averages(result):
    return dict(zip(result.headers[1:], result.rows[-1][1:]))


def test_fig6_3a_splash(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_3", runner),
        kwargs={"apps": params.splash_apps,
                "n_cores": params.cores_splash, "suite": "SPLASH-2"},
        rounds=1, iterations=1)
    publish(result)
    avg = _averages(result)
    # The paper's ordering: Global >> Rebound_NoDWB > Rebound, and
    # Global_DWB alone is not as good as full Rebound.
    assert avg["global"] > avg["rebound_nodwb"] > avg["rebound"]
    assert avg["global"] > 2.0 * avg["rebound"]
    assert avg["global_dwb"] >= avg["rebound"]


def test_fig6_3b_parsec_apache(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_3", runner),
        kwargs={"apps": params.parsec_apps,
                "n_cores": params.cores_parsec,
                "suite": "PARSEC/Apache"},
        rounds=1, iterations=1)
    publish(result)
    avg = _averages(result)
    assert avg["global"] > avg["rebound"]
