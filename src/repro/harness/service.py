"""Campaign service: a persistent, sharded experiment server.

The batch :class:`~repro.harness.engine.ExperimentEngine` plans, pools
and exits; a million-run campaign is a workload to *serve*, not a
script to babysit.  This module promotes the engine into a
long-running service:

* **Streaming submissions** — clients spool jobs (priority-ordered
  sets of :class:`~repro.harness.engine.RunKey`) into a file-based job
  queue; the server drains it highest-priority-first, re-scanning
  between jobs so late submissions and cancellations take effect
  immediately.  The spool is plain files under one directory (no
  network dependencies): submit/status/cancel work from any process —
  including while the server is down — and survive restarts by
  construction.

* **Incremental results** — every landed run is indexed in a JSONL
  *result journal* the moment the engine's outcome-landing hook fires.
  The result itself lives in one place only: the engine's
  fingerprinted result cache, which the engine (or a pool worker)
  writes before the run lands.  Progress is observable per job (state
  files updated as results land) and a partial campaign still has a
  partial summary.

* **Restart replay** — on startup every journaled key of every job
  (taken from the job's spool file) is loaded from the result cache:
  a campaign killed mid-flight resumes with **zero recomputation** of
  landed runs.  The cache's invalidation applies unchanged — a
  simulator change, or a registered generator without a fingerprint,
  is recomputed, never served stale.  Results that never reached the
  journal (killed between landing and append) replay from the cache
  when the job resumes; a run whose cache write failed is recomputed.
  A service therefore needs the result cache: an engine built with
  ``--no-cache`` is refused.

* **Cancellation** — touching a cancel marker stops a running job
  cooperatively: un-submitted chunks are dropped, in-flight chunks
  drain and land, and the job reports a partial summary over exactly
  the runs that landed.

Spool layout (``REPRO_SERVE_SPOOL`` or ``<cache_dir>/service``)::

    queue/<job>.job    pickled submission (keys, priority, label)
    state/<job>.json   live job status, atomically replaced
    cancel/<job>       cancel marker (touch to cancel)
    journal.jsonl      append-only result journal
    stop               stop marker: a running server exits its loop

Journal format: one JSON object per line —
``{"job", "key", "source", "seconds", "t"}`` — where ``key`` is the
``RunKey`` repr, ``source`` is ``run`` (computed), ``memo`` or
``disk`` (replayed), ``seconds`` the run's wall clock and ``t`` the
landing time.  A truncated final line (the kill arrived mid-write) is
skipped on replay, never a crash.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    StreamReport,
    default_cache_dir,
)
from repro.sim import SimStats
from repro.sim.stats import CampaignSummary, summarize_campaign

JOURNAL_NAME = "journal.jsonl"

#: Job states a client can observe.  ``queued`` and ``running`` are
#: live; the other three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


def default_spool_dir() -> Path:
    """``REPRO_SERVE_SPOOL`` or ``<result cache dir>/service``."""
    env = os.environ.get("REPRO_SERVE_SPOOL")
    if env:
        return Path(env)
    return default_cache_dir() / "service"


@dataclass
class JobRecord:
    """One spooled submission, as the server sees it."""

    job_id: str
    keys: list
    priority: int = 0
    label: str = ""
    seq: int = 0                   # submission order within a priority
    submitted_at: float = 0.0

    def sort_key(self) -> tuple:
        # Highest priority first; FIFO within a priority.
        return (-self.priority, self.seq, self.job_id)


class CampaignService:
    """The persistent experiment server (and its client API).

    Client-side operations (``submit`` / ``cancel`` / ``status`` /
    ``wait`` / ``request_stop``) only touch the spool and work without
    an engine — from a different process than the server, or with no
    server running at all.  Server-side operations (``serve`` /
    ``run_job`` / ``replay``, and ``summarize`` / ``job_results``,
    which read the result cache) go through the wrapped
    :class:`~repro.harness.engine.ExperimentEngine`: chunked affinity
    dispatch across the worker pool, worker-side cache writes,
    vectorized replica batches — the whole batch data plane, reused
    per job.  The engine must keep its result cache on: the journal
    only indexes results that live there.
    """

    def __init__(self, spool_dir: Optional[os.PathLike] = None,
                 engine: Optional[ExperimentEngine] = None):
        if engine is not None and not engine.use_disk_cache:
            raise ValueError("the campaign service reads results from "
                             "the result cache; drop --no-cache")
        self.spool = Path(spool_dir) if spool_dir is not None \
            else default_spool_dir()
        self.queue_dir = self.spool / "queue"
        self.state_dir = self.spool / "state"
        self.cancel_dir = self.spool / "cancel"
        self.journal_path = self.spool / JOURNAL_NAME
        for directory in (self.queue_dir, self.state_dir,
                          self.cancel_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.engine = engine
        self._journal = None          # append handle, open during a job
        self._last_flush = float("-inf")
        #: Journal index: job id -> set of key reprs already landed
        #: (so a resumed job never journals a key twice).
        self._journaled: dict[str, set[str]] = {}
        self._replayed = False
        self._submit_counter = 0

    # ------------------------------------------------------------------
    # client side: the spool protocol
    # ------------------------------------------------------------------
    def submit(self, keys: Iterable[RunKey], priority: int = 0,
               label: str = "", job_id: Optional[str] = None) -> str:
        """Spool a job; returns its id.  Safe with or without a server
        running — the submission is one atomically-renamed file."""
        keys = list(dict.fromkeys(keys))
        if not keys:
            raise ValueError("a job needs at least one RunKey")
        self._submit_counter += 1
        if job_id is None:
            job_id = (f"job-{time.time_ns():x}-{os.getpid()}"
                      f"-{self._submit_counter}")
        if any(c in job_id for c in "/\\") or job_id in (".", ".."):
            raise ValueError(f"invalid job id {job_id!r}")
        path = self.queue_dir / f"{job_id}.job"
        if path.exists() or (self.state_dir / f"{job_id}.json").exists():
            raise ValueError(f"job id {job_id!r} already exists")
        payload = {
            "job_id": job_id,
            "priority": int(priority),
            "label": label,
            "seq": time.time_ns(),
            "submitted_at": time.time(),
            "keys": keys,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._write_state({"job": job_id, "state": "queued",
                           "label": label, "priority": int(priority),
                           "total": len(keys), "landed": 0,
                           "computed": 0, "replayed": 0, "failed": 0,
                           "pending": len(keys),
                           "submitted_at": payload["submitted_at"]})
        return job_id

    def cancel(self, job_id: str) -> bool:
        """Request cancellation: queued jobs never start; a running job
        stops at its next landing boundary and keeps what landed.
        Returns False for unknown jobs."""
        if self.status(job_id) is None:
            return False
        (self.cancel_dir / job_id).touch()
        status = self.status(job_id) or {}
        if status.get("state") == "queued":
            # No server race: a starting server re-checks the marker
            # before running, so marking here is purely observational.
            status["state"] = "cancelled"
            self._write_state(status)
        return True

    def cancel_requested(self, job_id: str) -> bool:
        return (self.cancel_dir / job_id).exists()

    def status(self, job_id: str) -> Optional[dict]:
        """The job's live status dict, or None if unknown."""
        path = self.state_dir / f"{job_id}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            pass
        # Submitted by an older client that wrote no state file yet:
        # derive a queued status from the job file.
        job = self._load_job(self.queue_dir / f"{job_id}.job")
        if job is None:
            return None
        return {"job": job.job_id, "state": "queued", "label": job.label,
                "priority": job.priority, "total": len(job.keys),
                "landed": 0, "computed": 0, "replayed": 0, "failed": 0,
                "pending": len(job.keys),
                "submitted_at": job.submitted_at}

    def statuses(self) -> list[dict]:
        """Every known job's status, newest submission first."""
        rows = {}
        for path in self.state_dir.glob("*.json"):
            try:
                status = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            rows[status.get("job")] = status
        for path in self.queue_dir.glob("*.job"):
            job_id = path.stem
            if job_id not in rows:
                status = self.status(job_id)
                if status is not None:
                    rows[job_id] = status
        return sorted(rows.values(),
                      key=lambda s: -s.get("submitted_at", 0.0))

    def wait(self, job_ids: Optional[list[str]] = None,
             timeout: Optional[float] = None,
             poll: float = 0.1) -> bool:
        """Client-side drain: block until the given jobs (default: all
        known jobs) reach a terminal state.  True on success, False on
        timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            statuses = ([self.status(job_id) for job_id in job_ids]
                        if job_ids is not None else self.statuses())
            live = [s for s in statuses
                    if s is not None and s.get("state")
                    not in TERMINAL_STATES]
            if not live:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(poll)

    def request_stop(self) -> None:
        """Ask a running server to exit after its current job."""
        (self.spool / "stop").touch()

    def stop_requested(self) -> bool:
        return (self.spool / "stop").exists()

    # ------------------------------------------------------------------
    # server side: replay, execution, the serve loop
    # ------------------------------------------------------------------
    def _require_engine(self) -> ExperimentEngine:
        if self.engine is None:
            raise RuntimeError("this CampaignService is client-only; "
                               "construct it with an ExperimentEngine "
                               "to serve or summarize jobs")
        return self.engine

    def replay(self) -> int:
        """Load every journaled result into the engine's memo (once per
        service), straight from the result cache.

        A journaled key the cache no longer serves — stale code
        fingerprint, a generator registered without a fingerprint, a
        failed cache write — is skipped and recomputed when its job
        resumes; truncated or unreadable journal lines (a SIGKILL can
        land mid-write) are skipped too.  Returns the number of results
        replayed into the memo.
        """
        engine = self._require_engine()
        if self._replayed:
            return 0
        self._replayed = True
        self._journaled = self._journal_index()
        loaded = 0
        for job_id, landed in self._journaled.items():
            for key in self._landed_keys(job_id, landed):
                if key in engine.memo:
                    continue
                stats = engine._load_cached(key)
                if stats is not None:
                    engine.memo[key] = stats
                    loaded += 1
        return loaded

    def run_job(self, job: JobRecord) -> StreamReport:
        """Execute one job through the engine, streaming every landed
        result to the journal and the job's state file."""
        engine = self._require_engine()
        self.replay()
        already = self._journaled.setdefault(job.job_id, set())
        status = self.status(job.job_id) or {"job": job.job_id}
        status.update(state="running", label=job.label,
                      priority=job.priority, total=len(job.keys),
                      landed=0, computed=0, replayed=0, failed=0,
                      pending=len(job.keys),
                      submitted_at=job.submitted_at or
                      status.get("submitted_at", 0.0))
        self._write_state(status)
        last_write = time.monotonic()

        def on_land(key: RunKey, stats: SimStats, source: str,
                    seconds: float) -> None:
            nonlocal last_write
            text = repr(key)
            if text not in already:
                already.add(text)
                self._journal_append({
                    "job": job.job_id,
                    "key": text,
                    "source": source,
                    "seconds": round(seconds, 6),
                    "t": time.time(),
                })
            status["landed"] = status.get("landed", 0) + 1
            if source == "run":
                status["computed"] += 1
            else:
                status["replayed"] += 1
            status["pending"] = max(0, len(job.keys) - status["landed"])
            now = time.monotonic()
            if now - last_write >= 0.2:
                last_write = now
                self._write_state(status)

        # The marker check is a stat() and the engine polls between
        # landings — throttle to ~20 polls/s so a million tiny runs
        # don't pay a filesystem round-trip each (cancellation latency
        # of 50ms is invisible next to chunk drain time).
        poll_state = {"at": float("-inf"), "cancelled": False}

        def should_cancel() -> bool:
            now = time.monotonic()
            if not poll_state["cancelled"] \
                    and now - poll_state["at"] >= 0.05:
                poll_state["at"] = now
                poll_state["cancelled"] = \
                    self.cancel_requested(job.job_id)
            return poll_state["cancelled"]

        try:
            report = engine.run_stream(job.keys, on_land=on_land,
                                       should_cancel=should_cancel)
        finally:
            self.close()    # the job's index lines reach the file
        status["failed"] = len(report.failures)
        status["pending"] = len(report.pending)
        if report.cancelled:
            status["state"] = "cancelled"
        elif report.failures:
            status["state"] = "failed"
            status["failures"] = [
                engine.describe_failure(key, exc)
                for key, exc in report.failures[:10]]
        else:
            status["state"] = "done"
        self._write_state(status)
        return report

    def pending_jobs(self) -> list[JobRecord]:
        """Spooled jobs that still need a server, best first."""
        jobs = []
        for path in sorted(self.queue_dir.glob("*.job")):
            job = self._load_job(path)
            if job is None:
                continue
            status = self.status(job.job_id) or {}
            if status.get("state") in TERMINAL_STATES:
                continue
            if self.cancel_requested(job.job_id):
                status.update(state="cancelled")
                self._write_state(status)
                continue
            jobs.append(job)
        return sorted(jobs, key=JobRecord.sort_key)

    def serve(self, poll: float = 0.5, drain: bool = False,
              max_seconds: Optional[float] = None,
              on_idle: Optional[Callable[[], None]] = None) -> int:
        """The server loop: replay, then execute spooled jobs until a
        stop is requested (or, with ``drain=True``, until the queue is
        empty).  Re-scans the spool after every job so cancellations
        and higher-priority submissions take effect at job boundaries.
        Returns the number of jobs executed.
        """
        self._require_engine()
        # A stop marker left by a previous shutdown must not kill the
        # fresh server before it serves anything.
        self._clear_stop()
        self.replay()
        processed = 0
        started = time.monotonic()
        while True:
            if self.stop_requested():
                self._clear_stop()
                break
            jobs = self.pending_jobs()
            if not jobs:
                if drain:
                    break
                if (max_seconds is not None
                        and time.monotonic() - started > max_seconds):
                    break
                if on_idle is not None:
                    on_idle()
                time.sleep(poll)
                continue
            self.run_job(jobs[0])
            processed += 1
        self.close()
        return processed

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summarize(self, job_id: str) -> CampaignSummary:
        """Campaign distributions over the landed runs of ``job_id`` —
        for a finished job this is bit-identical to
        ``summarize_campaign`` over the batch engine's results; for a
        cancelled or still-running job it is the partial summary of
        exactly the landed runs."""
        return summarize_campaign(self.job_results(job_id).values())

    def job_results(self, job_id: str) -> dict[RunKey, SimStats]:
        """The landed results of one job in submission order, loaded
        from the result cache (the journal says which keys landed)."""
        engine = self._require_engine()
        landed = self._journal_index().get(job_id, set())
        results: dict[RunKey, SimStats] = {}
        for key in self._landed_keys(job_id, landed):
            stats = engine._load_cached(key)
            if stats is not None:
                results[key] = stats
        return results

    def close(self) -> None:
        """Flush and close the journal."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _journal_append(self, record: dict) -> None:
        """Append one index line.  Flushes are throttled to one per
        50 ms — a flush per landing would cost a write syscall per tiny
        run — so a kill can lose the lines appended since the last
        flush; their results are in the cache already, and the resumed
        job replays them from there."""
        if self._journal is None:
            self._journal = self.journal_path.open("a", encoding="utf-8")
        self._journal.write(json.dumps(record, sort_keys=True) + "\n")
        now = time.monotonic()
        if now - self._last_flush >= 0.05:
            self._journal.flush()
            self._last_flush = now

    def _journal_records(self):
        """Parsed journal lines, oldest first; garbage lines (torn
        writes from a kill) are skipped."""
        try:
            with self.journal_path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and "job" in record \
                            and "key" in record:
                        yield record
        except OSError:
            return

    def _journal_index(self) -> dict[str, set[str]]:
        """Job id -> reprs of the keys the journal says landed."""
        index: dict[str, set[str]] = {}
        for record in self._journal_records():
            index.setdefault(record["job"], set()).add(record["key"])
        return index

    def _landed_keys(self, job_id: str, landed: set[str]) -> list[RunKey]:
        """The keys of ``job_id`` (from its spool file, in submission
        order) whose reprs are in ``landed``."""
        job = self._load_job(self.queue_dir / f"{job_id}.job")
        if job is None:
            return []
        return [key for key in job.keys if repr(key) in landed]

    def _load_job(self, path: Path) -> Optional[JobRecord]:
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            keys = list(payload["keys"])
            if not all(isinstance(key, RunKey) for key in keys):
                return None
            return JobRecord(job_id=payload["job_id"], keys=keys,
                             priority=payload.get("priority", 0),
                             label=payload.get("label", ""),
                             seq=payload.get("seq", 0),
                             submitted_at=payload.get("submitted_at",
                                                      0.0))
        except Exception:  # noqa: BLE001 - torn submission: skip
            return None

    def _write_state(self, status: dict) -> None:
        path = self.state_dir / f"{status['job']}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(status, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            pass  # status is observability, never worth crashing a job

    def _clear_stop(self) -> None:
        try:
            (self.spool / "stop").unlink()
        except OSError:
            pass
