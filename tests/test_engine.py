"""Tests for the experiment engine: dedup, parallelism, disk cache.

The determinism guard: serial, parallel (``jobs=4``) and disk-cache-
replayed executions must produce *identical* ``SimStats`` for a matrix
of (app, scheme, n_cores) — plus pickle round-trips for the payload
types the cache and the process pool move between processes.
"""

import pickle

import pytest

import repro.harness.engine as engine_mod
from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.runner import Runner
from repro.params import Scheme
from repro.sim import SimStats

#: Small cross-scheme matrix (tiny scale keeps each run in the tens of
#: milliseconds).
MATRIX = [
    RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300),
    RunKey("blackscholes", 4, Scheme.NONE, 1.5, 1, 300),
    RunKey("water_sp", 4, Scheme.GLOBAL, 1.5, 1, 300),
    RunKey("water_sp", 2, Scheme.REBOUND, 1.5, 1, 300),
]


@pytest.fixture()
def serial_results(tmp_path):
    eng = ExperimentEngine(jobs=1, use_disk_cache=False)
    return eng.run_many(MATRIX)


class TestParity:
    def test_parallel_matches_serial(self, serial_results):
        parallel = ExperimentEngine(jobs=4, use_disk_cache=False)
        got = parallel.run_many(MATRIX)
        for key in MATRIX:
            assert got[key] == serial_results[key], key

    def test_disk_replay_matches_serial(self, serial_results, tmp_path,
                                        monkeypatch):
        writer = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        writer.run_many(MATRIX)
        assert len(writer.profile) == len(MATRIX)
        # A fresh engine over the same cache dir must replay from disk:
        # make any recompute blow up.
        monkeypatch.setattr(engine_mod, "execute_batch",
                            lambda keys, store: pytest.fail(
                                f"recomputed {keys}"))
        reader = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        got = reader.run_many(MATRIX)
        assert reader.disk_hits == len(MATRIX)
        assert not reader.profile
        for key in MATRIX:
            assert got[key] == serial_results[key], key


class TestEngineMechanics:
    def test_duplicate_keys_computed_once(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        key = MATRIX[0]
        got = eng.run_many([key, key, key])
        assert len(got) == 1
        assert len(eng.profile) == 1

    def test_memo_returns_identical_object(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        key = MATRIX[0]
        assert eng.run(key) is eng.run(key)

    def test_verbose_landing_line_names_the_faults(self, capsys):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        eng.verbose = True
        leader = MATRIX[0]
        faulty = RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                        fault_at=12_000.0)
        eng.run_many([leader, faulty])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "[engine] done" in line]
        assert len(lines) == 2
        assert lines[0] != lines[1]
        assert "faults=" not in lines[0]
        detect = 12_000 + engine_mod.resolve_config(faulty).detection_latency
        assert f"faults=1@{detect}" in lines[1]

    def test_no_cache_writes_nothing(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=False)
        eng.run(MATRIX[0])
        assert list(tmp_path.iterdir()) == []

    def test_fingerprint_invalidates_cache(self, tmp_path, monkeypatch):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        eng.run(MATRIX[0])
        monkeypatch.setattr(engine_mod, "_FINGERPRINT", "different-code")
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        fresh.run(MATRIX[0])
        assert fresh.disk_hits == 0          # old entry not addressed
        assert len(fresh.profile) == 1       # recomputed

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        key = MATRIX[0]
        eng.run(key)
        path = eng._cache_path(key)
        path.write_bytes(b"not a pickle")
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        stats = fresh.run(key)
        assert isinstance(stats, SimStats)
        assert len(fresh.profile) == 1


class TestParallelFailures:
    def test_every_failing_key_reported(self):
        # Two keys with unknown apps fail inside the workers; the raised
        # error must name them *both* (a single-failure report makes a
        # broken sweep a whack-a-mole of reruns), while the healthy
        # sibling still lands in the memo.
        good = MATRIX[0]
        bad = [RunKey("no_such_app_a", 4, Scheme.NONE, 1.5, 1, 300),
               RunKey("no_such_app_b", 4, Scheme.NONE, 1.5, 1, 300)]
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([good] + bad)
        message = str(excinfo.value)
        assert "no_such_app_a" in message
        assert "no_such_app_b" in message
        assert "2 of 3 run(s)" in message
        assert good in eng.memo

    def test_serial_failure_names_the_run_and_later_runs_land(self):
        # At -j 1 a failing run does not stop the plan: the runs planned
        # after it still execute, and the error names the failing run,
        # exactly as on the pool path.
        good, good2 = MATRIX[0], MATRIX[1]
        bad = RunKey("no_such_app", 4, Scheme.NONE, 1.5, 1, 300)
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([good, bad, good2])
        message = str(excinfo.value)
        assert "1 of 3 run(s)" in message
        assert eng._describe(bad) in message
        assert good in eng.memo and good2 in eng.memo

    def test_failed_batch_reports_every_replica_key(self):
        # Regression: a failed replica *batch* used to surface only its
        # first RunKey ("failed for 1 of N") — a dead task holding N
        # replicas masked N-1 sibling keys.  Two keys that differ only
        # in their fault plan batch together; both must be reported.
        from repro.sim.faults import FaultPlan

        good = MATRIX[0]
        bad = [RunKey("no_such_app", 4, Scheme.REBOUND, 1.5, 1, 300,
                      fault_plan=FaultPlan.single(5000.0)),
               RunKey("no_such_app", 4, Scheme.REBOUND, 1.5, 1, 300,
                      fault_plan=FaultPlan.single(9000.0))]
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([good] + bad)
        message = str(excinfo.value)
        assert "2 of 3 run(s)" in message
        # Each replica is individually describable by its own plan.
        assert "5000.0" in message
        assert "9000.0" in message
        assert good in eng.memo

    def test_interrupt_lands_partial_results(self, tmp_path, capsys,
                                             monkeypatch):
        # Regression: Ctrl-C in the dispatch wait loop used to escape
        # past the epilogue and block in ProcessPoolExecutor.__exit__.
        # Now the engine cancels queued tasks, lands every completed
        # result in the memo (workers already wrote the cache entries),
        # prints a one-line partial-progress note, and re-raises.
        real_wait = engine_mod.wait
        calls = {"n": 0}

        def interrupting_wait(futures, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            done, _ = real_wait(futures, *args, **kwargs)
            # Hand back one finished future per call, however many
            # finished together, so tasks remain and a second call (the
            # interrupt) always comes.
            first = next(iter(done))
            return {first}, set(futures) - {first}

        monkeypatch.setattr(engine_mod, "wait", interrupting_wait)
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True)
        with pytest.raises(KeyboardInterrupt):
            eng.run_many(MATRIX)
        assert len(eng.memo) >= 1          # completed tasks landed
        assert "interrupted:" in capsys.readouterr().out
        # The landed results replay from disk: nothing was lost.
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        fresh.run_many(list(eng.memo))
        assert fresh.disk_hits == len(eng.memo)
        assert not fresh.profile


    def test_pool_cancel_reports_unstarted_tasks_pending(self):
        # Every task is submitted up front; cancelling after the first
        # landing cancels the tasks that have not started (their keys
        # come back pending) while in-flight tasks drain and land.
        keys = [RunKey("blackscholes", 4, Scheme.NONE, 1.5, seed, 300)
                for seed in range(1, 13)]
        landed = []
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        report = eng.run_stream(
            keys, on_land=lambda key, *_: landed.append(key),
            should_cancel=lambda: bool(landed))
        assert report.cancelled
        assert report.pending
        parts = [list(report.results), [key for key, _ in report.failures],
                 report.pending]
        assert sorted(map(repr, sum(parts, []))) == sorted(map(repr, keys))
        assert set(report.results) == set(landed) == set(eng.memo)


class TestProfileRows:
    def test_rows_carry_cluster_and_overrides(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        eng.run(RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                       cluster=2, overrides={"detection_latency": 2000}))
        eng.run(MATRIX[0])
        rows = eng.profile_rows()
        assert all(len(row) == 9 for row in rows)
        by_cluster = {row[5]: row for row in rows}
        assert by_cluster[2][6] == "detection_latency=2000"
        assert by_cluster[1][6] == "-"
        # neither run was part of a replica batch: width 1
        assert all(row[7] == 1 for row in rows)


class TestRunnerFacade:
    def test_runner_routes_through_engine(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        runner = Runner(scale=300, intervals=1.5, engine=eng)
        stats = runner.run("blackscholes", 4, Scheme.REBOUND)
        key = runner.key("blackscholes", 4, Scheme.REBOUND)
        assert eng.memo[key] is stats

    def test_prefetch_then_run_hits_memo(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        runner = Runner(scale=300, intervals=1.5, engine=eng)
        keys = [runner.key("blackscholes", 4, Scheme.REBOUND),
                runner.key("blackscholes", 4, Scheme.NONE)]
        runner.prefetch(keys)
        assert len(eng.profile) == 2
        runner.overhead("blackscholes", 4, Scheme.REBOUND)
        assert len(eng.profile) == 2  # nothing recomputed


class TestPickleRoundTrips:
    def test_runkey_round_trip(self):
        key = RunKey("ocean", 64, Scheme.REBOUND_BARR, 3.0, 1, 40,
                     io_every=1000, fault_at=2.5e5)
        assert pickle.loads(pickle.dumps(key)) == key

    def test_scheme_round_trip(self):
        for scheme in Scheme:
            assert pickle.loads(pickle.dumps(scheme)) is scheme

    def test_simstats_round_trip(self):
        stats = execute_run(MATRIX[0])
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.config == stats.config
        assert clone.cores == stats.cores
        assert clone.checkpoints == stats.checkpoints
        # Derived quantities survive too.
        assert clone.mean_ichk_fraction() == stats.mean_ichk_fraction()
        assert clone.breakdown() == stats.breakdown()


#: Every ``REPRO_*`` environment setting the package reads.
KNOBS = {"REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE",
         "REPRO_SERVE_SPOOL"}


def test_knob_surface():
    # A knob is any string literal that is exactly a REPRO_* name (an
    # environment read, direct or through a helper).  Each one must be
    # on the list above and have a row in README's knob table.
    import ast
    import re
    from pathlib import Path

    package = Path(engine_mod.__file__).resolve().parents[1]
    found = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"REPRO_[A-Z_]+", node.value):
                found.add(node.value)
    assert found == KNOBS

    readme = (package.parents[1] / "README.md").read_text()
    table = readme.split("### Knobs", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[2] for line in table.splitlines()
            if line.startswith("| ")]
    assert {name for row in rows
            for name in re.findall(r"REPRO_[A-Z_]+", row)} == KNOBS
