"""Figure 6.5: checkpoint-overhead breakdown, normalized to Global."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_5_breakdown(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_5", runner),
        kwargs={"apps": params.all_apps,
                "splash_cores": params.cores_splash,
                "parsec_cores": params.cores_parsec},
        rounds=1, iterations=1)
    publish(result)
    # Aggregate shape: Global is writeback-dominated; Rebound's residual
    # overhead is dominated by IPCDelay (background traffic).
    global_wb = global_ipc = reb_wb = reb_ipc = 0.0
    for row in result.rows:
        wb = row[2] + row[3]
        ipc = row[5]
        if row[1] == "global":
            global_wb += wb
            global_ipc += ipc
        elif row[1] == "rebound":
            reb_wb += wb
            reb_ipc += ipc
    assert global_wb > global_ipc
    assert reb_ipc > reb_wb
