"""Campaign service tests: spool lifecycle, journal streaming, replay.

The restart contract is the load-bearing one: a killed campaign must
resume with *zero* recomputation of landed runs and summarize
bit-identically to a cold batch-engine run of the same plan.  The
journal only indexes which job landed which key; the results
themselves are replayed from the fingerprinted result cache, so the
cache's invalidation rules are the service's too.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.harness.engine as engine_mod
from repro.harness.engine import ExperimentEngine, RunKey
from repro.harness.service import (
    CampaignService,
    JobRecord,
    default_spool_dir,
)
from repro.params import Scheme
from repro.sim.stats import summarize_campaign


def keys_for(n, scale=300):
    return [RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, seed, scale)
            for seed in range(1, n + 1)]


def make_service(tmp_path, jobs=1):
    engine = ExperimentEngine(jobs=jobs, cache_dir=tmp_path / "cache",
                              use_disk_cache=True)
    return CampaignService(spool_dir=tmp_path / "spool", engine=engine)


class TestSpoolProtocol:
    def test_submit_status_roundtrip(self, tmp_path):
        service = make_service(tmp_path)
        job_id = service.submit(keys_for(3), priority=2, label="demo")
        status = service.status(job_id)
        assert status["state"] == "queued"
        assert status["total"] == 3
        assert status["priority"] == 2
        assert status["label"] == "demo"
        assert [s["job"] for s in service.statuses()] == [job_id]
        assert service.status("no-such-job") is None

    def test_empty_submission_rejected(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ValueError):
            service.submit([])

    def test_duplicate_job_id_rejected(self, tmp_path):
        service = make_service(tmp_path)
        service.submit(keys_for(1), job_id="twin")
        with pytest.raises(ValueError):
            service.submit(keys_for(1), job_id="twin")

    def test_priority_orders_the_queue(self, tmp_path):
        service = make_service(tmp_path)
        low = service.submit(keys_for(1), priority=0)
        high = service.submit(keys_for(2), priority=5)
        assert [job.job_id for job in service.pending_jobs()] \
            == [high, low]

    def test_cancel_queued_job_never_runs(self, tmp_path):
        service = make_service(tmp_path)
        doomed = service.submit(keys_for(2), label="doomed")
        kept = service.submit(keys_for(1), label="kept")
        assert service.cancel(doomed)
        assert not service.cancel("no-such-job")
        service.serve(drain=True)
        assert service.status(doomed)["state"] == "cancelled"
        assert service.status(kept)["state"] == "done"
        assert service.engine.profile  # only the kept job executed
        assert all(key in service.engine.memo for key in keys_for(1))

    def test_stop_request_ends_an_idle_server(self, tmp_path):
        service = make_service(tmp_path)
        processed = service.serve(
            poll=0.01, on_idle=service.request_stop)
        assert processed == 0
        assert not service.stop_requested()  # honored and cleared


class TestServeAndJournal:
    def test_drain_executes_and_journals_everything(self, tmp_path):
        service = make_service(tmp_path, jobs=2)
        keys = keys_for(4)
        job_id = service.submit(keys, label="full")
        assert service.serve(drain=True) == 1
        status = service.status(job_id)
        assert status["state"] == "done"
        assert status["landed"] == 4
        assert status["computed"] == 4
        assert status["pending"] == 0
        records = [json.loads(line) for line in
                   (service.spool / "journal.jsonl").read_text()
                   .splitlines()]
        assert len(records) == 4
        # An index line, not a second copy of the result: the SimStats
        # live only in the result cache.
        assert all(set(r) == {"job", "key", "source", "seconds", "t"}
                   for r in records)
        assert not any("pkl" in r or "fingerprint" in r for r in records)
        assert all(r["job"] == job_id for r in records)
        assert sorted(r["key"] for r in records) \
            == sorted(repr(key) for key in keys)
        assert all(r["source"] == "run" for r in records)
        assert all(service.engine._cache_path(key).exists()
                   for key in keys)

    def test_journal_results_bit_identical_to_batch_engine(self,
                                                           tmp_path):
        service = make_service(tmp_path)
        keys = keys_for(3)
        job_id = service.submit(keys)
        service.serve(drain=True)
        batch = ExperimentEngine(jobs=1, use_disk_cache=False)
        expected = batch.run_many(keys)
        landed = service.job_results(job_id)
        assert set(landed) == set(keys)
        for key in keys:
            assert landed[key] == expected[key], key
        assert service.summarize(job_id) \
            == summarize_campaign(expected[key] for key in keys)

    def test_cancelled_job_reports_partial_summary(self, tmp_path):
        # Two of four runs land (replayed from the memo), then the
        # cancel marker is seen: the rest stay pending and the job's
        # summary covers exactly the landed runs.
        service = make_service(tmp_path)
        keys = keys_for(4)
        done = service.engine.run_many(keys[:2])
        job_id = service.submit(keys, label="partial")
        (service.cancel_dir / job_id).touch()
        report = service.run_job(JobRecord(job_id=job_id, keys=keys))
        assert report.cancelled
        assert set(report.results) == set(keys[:2])
        assert set(report.pending) == set(keys[2:])
        status = service.status(job_id)
        assert status["state"] == "cancelled"
        assert status["landed"] == 2
        assert status["pending"] == 2
        partial = service.summarize(job_id)
        assert partial.n_runs == 2
        assert partial == summarize_campaign(done.values())


class TestRestartReplay:
    def test_restart_resumes_with_zero_recomputation(self, tmp_path):
        first = make_service(tmp_path)
        keys = keys_for(4)
        job_id = first.submit(keys)
        first.serve(drain=True)
        # A fresh process (new engine, same spool + cache): replay fills
        # the memo from the journal, so resubmitting the same plan runs
        # nothing — and any recompute attempt blows up loudly.
        second = make_service(tmp_path)
        assert second.replay() == 4
        assert set(second.engine.memo) == set(keys)
        again = second.submit(keys)
        second.serve(drain=True)
        status = second.status(again)
        assert status["state"] == "done"
        assert status["computed"] == 0
        assert status["replayed"] == 4
        assert not second.engine.profile  # zero executions
        assert second.summarize(again) == first.summarize(job_id)

    def test_interrupted_job_resumes_from_journal_and_cache(self,
                                                            tmp_path):
        # Simulate a mid-flight kill: half the job landed (journal +
        # cache written), the process died before the rest ran.  The
        # restarted server finishes the *same* job, recomputing only
        # the unlanded half and journaling each key exactly once.
        keys = keys_for(4)
        first = make_service(tmp_path)
        job_id = first.submit(keys, label="campaign")
        (first.cancel_dir / job_id).touch()       # "die" after 2 runs
        first.engine.run_many(keys[:2])
        first.run_job(JobRecord(job_id=job_id, keys=keys))
        first.close()
        (first.cancel_dir / job_id).unlink()
        # Force the state back to non-terminal, as a SIGKILL would have
        # left it ("running" never transitions).
        status = first.status(job_id)
        status["state"] = "running"
        first._write_state(status)

        second = make_service(tmp_path)
        assert second.serve(drain=True) == 1
        status = second.status(job_id)
        assert status["state"] == "done"
        assert set(second.engine.profile) == set(keys[2:])  # only these
        records = [json.loads(line) for line in
                   (second.spool / "journal.jsonl").read_text()
                   .splitlines()]
        per_key = [r["key"] for r in records if r["job"] == job_id]
        # Landing order: the two replayed runs, then the two computed
        # ones, each journaled once.
        assert per_key == [repr(key) for key in keys]
        cold = ExperimentEngine(jobs=1, use_disk_cache=False)
        assert second.summarize(job_id) \
            == summarize_campaign(cold.run_many(keys).values())

    def test_stale_fingerprint_entries_are_not_replayed(self, tmp_path,
                                                        monkeypatch):
        service = make_service(tmp_path)
        job_id = service.submit(keys_for(2))
        service.serve(drain=True)
        monkeypatch.setattr(engine_mod, "_FINGERPRINT", "new-physics")
        stale = make_service(tmp_path)
        assert stale.replay() == 0
        assert stale.summarize(job_id).n_runs == 0

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        service = make_service(tmp_path)
        job_id = service.submit(keys_for(2))
        service.serve(drain=True)
        with (service.spool / "journal.jsonl").open("a") as fh:
            fh.write("{garbage\n")
            fh.write('{"job": "x", "key": "y"}\n')  # no such job
            fh.write('{"job": "' + job_id + '"')  # torn mid-write
        fresh = make_service(tmp_path)
        assert fresh.replay() == 2
        assert fresh.summarize(job_id).n_runs == 2

    def test_unfingerprinted_workload_is_recomputed(self, tmp_path):
        # A generator registered without a fingerprint is never served
        # from the result cache; a restart must not serve it from the
        # journal either, or a changed generator's stale results would
        # outlive it.
        from repro.workloads import get_workload, register_workload
        from repro.workloads.registry import unregister_workload

        builds = []

        def gen(n_threads, config, intervals, seed):
            builds.append(seed)
            return get_workload("blackscholes", n_threads, config,
                                intervals=intervals, seed=seed)

        tag = register_workload("nofp_service_wl", gen)
        try:
            keys = [RunKey(tag, 4, Scheme.REBOUND, 1.5, seed, 300)
                    for seed in (1, 2)]
            first = make_service(tmp_path)
            first.submit(keys)
            first.serve(drain=True)
            assert len(builds) == 2
            assert not list((tmp_path / "cache").glob("*.pkl"))
            restarted = make_service(tmp_path)
            assert restarted.replay() == 0
            again = restarted.submit(keys)
            restarted.serve(drain=True)
        finally:
            unregister_workload("nofp_service_wl")
        assert restarted.status(again)["computed"] == 2
        assert len(builds) == 4                  # the builder ran again


class TestKillDashNine:
    def test_sigkill_mid_flight_then_restart_completes(self, tmp_path):
        """The acceptance criterion, end to end: SIGKILL a serving
        process mid-campaign, restart over the same spool, and the job
        completes with zero re-executed runs and a summary bit-identical
        to a cold batch run of the same plan."""
        keys = keys_for(12, scale=120)
        client = CampaignService(spool_dir=tmp_path / "spool")
        job_id = client.submit(keys, label="victim")
        script = (
            "from repro.harness.engine import ExperimentEngine\n"
            "from repro.harness.service import CampaignService\n"
            f"engine = ExperimentEngine(jobs=1, "
            f"cache_dir={str(tmp_path / 'cache')!r})\n"
            f"CampaignService({str(tmp_path / 'spool')!r}, "
            f"engine=engine).serve(drain=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            + sys.path)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        journal = tmp_path / "spool" / "journal.jsonl"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count("\n"):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)

        def journaled_keys():
            if not journal.exists():
                return set()
            found = set()
            for line in journal.read_text().splitlines():
                try:
                    found.add(json.loads(line)["key"])
                except (ValueError, KeyError):
                    continue   # torn final line from the kill
            return found

        journaled_before = journaled_keys()

        restarted = make_service(tmp_path)
        restarted.serve(drain=True)
        status = restarted.status(job_id)
        assert status["state"] == "done"
        assert status["landed"] == len(keys)
        # Zero re-execution: nothing journaled before the kill ran again.
        reexecuted = {repr(key) for key in restarted.engine.profile} \
            & journaled_before

        def explain() -> str:
            """Each re-executed key, where its cached result should be,
            whether it is there, and its journal lines."""
            records = []
            for line in journal.read_text().splitlines():
                try:
                    records.append((json.loads(line)["key"], line))
                except (ValueError, KeyError):
                    continue
            report = []
            for key in restarted.engine.profile:
                if repr(key) not in reexecuted:
                    continue
                path = restarted.engine._cache_path(key)
                lines = [line for name, line in records if name == repr(key)]
                report.append(f"{key!r}: result cache {path} "
                              f"(exists: {path.exists()}); journal: {lines}")
            return "re-executed after the restart:\n" + "\n".join(report)

        assert reexecuted == set(), explain()
        cold = ExperimentEngine(jobs=1, use_disk_cache=False)
        assert restarted.summarize(job_id) \
            == summarize_campaign(cold.run_many(keys).values())


class TestKnobs:
    def test_service_refuses_an_engine_without_the_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  use_disk_cache=False)
        with pytest.raises(ValueError, match="--no-cache"):
            CampaignService(spool_dir=tmp_path / "spool", engine=engine)

    def test_spool_dir_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SPOOL", str(tmp_path / "s"))
        assert default_spool_dir() == tmp_path / "s"
        monkeypatch.delenv("REPRO_SERVE_SPOOL")
        assert default_spool_dir().name == "service"
