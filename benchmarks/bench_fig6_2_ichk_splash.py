"""Figure 6.2: average ICHK size, SPLASH-2 at 32 and 64 processors."""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_2_ichk_splash(benchmark, runner, params):
    sizes = (max(8, params.cores_splash // 2), params.cores_splash)
    result = benchmark.pedantic(
        run_experiment, args=("fig6_2", runner),
        kwargs={"sizes": sizes, "apps": params.splash_apps},
        rounds=1, iterations=1)
    publish(result)
    by_app = {row[0]: row[1:] for row in result.rows}
    if "ocean" in by_app:
        # Barrier-dominated codes chain the whole machine (paper ~100%).
        assert by_app["ocean"][-1] > 85.0
    assert all(30.0 <= a <= 100.0 for a in by_app["average"])
