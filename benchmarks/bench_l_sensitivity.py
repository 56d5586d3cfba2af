"""L sensitivity (extension): detection-latency sweep (paper Sec 3.2).

The same seeded fault campaign is replayed while the machine's
detection latency L sweeps across fractions of a checkpoint interval —
a ``RunKey`` config override, so every (L, scheme, app, plan) cell is a
cached, pool-parallel engine run.  The shape checks pin the paper's
Section 3.2 claims: recovery latency grows with L, and Rebound's
localized rollback keeps availability above Global's at every L.
"""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_l_sensitivity(benchmark, runner, params):
    n_cores = min(params.campaign_sizes)
    result = benchmark.pedantic(
        run_experiment, args=("fig_l_sensitivity", runner),
        kwargs={"apps": params.campaign_apps, "n_cores": n_cores,
                "n_seeds": params.campaign_seeds},
        rounds=1, iterations=1)
    publish(result)
    recoveries: dict[str, list[float]] = {}
    availabilities: dict[tuple[str, str], float] = {}
    for row in result.rows:
        latency_l, scheme, mean_recovery, avail = (row[0], row[2],
                                                   row[3], row[5])
        if mean_recovery is not None:
            recoveries.setdefault(scheme, []).append(mean_recovery)
        availabilities[(latency_l, scheme)] = avail
    # Recovery latency is non-decreasing in L for every scheme.
    for scheme, latencies in recoveries.items():
        assert latencies == sorted(latencies), \
            f"{scheme}: recovery latency not monotone in L: {latencies}"
    # Rebound's localized rollback beats Global at every L.
    for (latency_l, scheme), avail in availabilities.items():
        if scheme == "rebound":
            assert avail >= availabilities[(latency_l, "global")]
    # Effective (useful-work) availability never exceeds the fault-only
    # metric: checkpoint overhead is charged on top.
    for row in result.rows:
        assert row[6] <= row[5]
