"""Figure 6.9 (extension): Monte Carlo fault campaign.

Seeded multi-fault runs (exponential MTTF model, any core) aggregated
into availability / work-lost / IREC / recovery-latency distributions,
comparing Rebound, Global and cluster-granular Rebound.  Every run is
identified by its seed-deterministic fault plan, so the campaign is
served by the engine's worker pool and disk cache like any figure.
"""

from conftest import publish

from repro.harness.experiments import run_experiment


def test_fig6_9_campaign(benchmark, runner, params):
    result = benchmark.pedantic(
        run_experiment, args=("fig6_9", runner),
        kwargs={"apps": params.campaign_apps,
                "sizes": params.campaign_sizes,
                "n_seeds": params.campaign_seeds},
        rounds=1, iterations=1)
    publish(result)
    rows = {(r[0], r[1]): r for r in result.rows}
    largest = max(params.campaign_sizes)
    glob = rows[(largest, "global")]
    reb = rows[(largest, "rebound")]
    # Every injected fault is accounted for.
    for row in result.rows:
        delivered, injected = row[8]
        assert 0 <= delivered <= injected
        # Effective availability also charges checkpoint overhead, so it
        # can never exceed the fault-only availability.
        assert row[3] <= row[2]
    # Local recovery keeps more of the machine useful than global
    # rollback under the same fault process (paper Sec 6.3 scaled up).
    assert reb[2] >= glob[2]
    # The useful-work metric widens the gap: Global also pays burst
    # writebacks every interval, Rebound only its interaction sets.
    assert reb[3] >= glob[3]
    # And it discards less work doing so.
    assert reb[4] <= glob[4]
