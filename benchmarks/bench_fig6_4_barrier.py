"""Figure 6.4: the barrier optimization on barrier-intensive codes."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_4_barrier(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_4", runner),
        kwargs={"apps": params.barrier_apps,
                "n_cores": params.cores_splash},
        rounds=1, iterations=1)
    publish(result)
    avg = dict(zip(result.headers[1:], result.rows[-1][1:]))
    # Both the barrier opt and delayed writebacks improve on plain
    # Rebound_NoDWB for these codes (paper: similar individual impact).
    assert avg["rebound_nodwb_barr"] < avg["rebound_nodwb"]
    assert avg["rebound"] < avg["rebound_nodwb"]
    assert avg["global"] > avg["rebound"]
