"""Campaign invariant audit (FAST-set member).

Runs the fig6_9 fault-campaign plan at the benchmark parameters (the
runs are shared with ``bench_fig6_9_campaign`` through the session
engine's memo and the disk cache, so this audits rather than recomputes)
and asserts the reusable accounting invariants from
``tests/invariants.py`` on every resulting ``SimStats`` — plus on every
other run the engine produced earlier in the session.  A double-charged
stall window or a bucket that stops partitioning the run exactly fails
the benchmark job, not just the unit suite.
"""

from conftest import publish  # noqa: F401  (keeps conftest import path)

from repro.harness.experiments import plan_experiment
from tests.invariants import assert_run_invariants


def test_campaign_invariants(benchmark, runner, params):
    plan = plan_experiment("fig6_9", runner, apps=params.campaign_apps,
                           sizes=params.campaign_sizes,
                           n_seeds=params.campaign_seeds)

    def audit():
        results = runner.engine.run_many(plan)
        for stats in results.values():
            assert_run_invariants(stats)
        # Everything else this session computed obeys the same algebra.
        for stats in runner.engine.memo.values():
            assert_run_invariants(stats)
        return len(results)

    audited = benchmark.pedantic(audit, rounds=1, iterations=1)
    assert audited == len(set(plan))
