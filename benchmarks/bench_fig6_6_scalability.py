"""Figure 6.6: overhead / energy / recovery latency vs. processor count."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_6_scalability(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_6", runner),
        kwargs={"apps": params.splash_apps, "sizes": params.sizes},
        rounds=1, iterations=1)
    publish(result)
    rows = {(r[0], r[1]): r for r in result.rows}
    largest = max(params.sizes)
    smallest = min(params.sizes)
    glob_large = rows[(largest, "global")][2]
    reb_large = rows[(largest, "rebound")][2]
    # Local checkpointing scales: at the largest machine Rebound's
    # overhead stays well below Global's (paper: 2% vs 15%).
    assert reb_large < glob_large
    # Global's overhead grows with the processor count.
    glob_small = rows[(smallest, "global")][2]
    assert glob_large >= glob_small * 0.9
    # Recovery: Rebound restores less than Global at scale.
    glob_rec = rows[(largest, "global")][4]
    reb_rec = rows[(largest, "rebound")][4]
    assert reb_rec <= glob_rec
