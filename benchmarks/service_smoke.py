"""Campaign-service crash smoke for CI: SIGKILL a serving process
mid-campaign and prove the restart recomputes nothing.

Lifecycle exercised, all through the shipped CLI where a client would
use it:

1. ``serve submit --quick`` spools a fig6_9 fault campaign.
2. ``serve start --drain`` runs in a child process; once at least one
   result has landed in the journal, the child is SIGKILLed — no
   atexit hooks, no executor shutdown, the worst case.
3. A fresh service over the same spool finishes the job.  Every key
   journaled before the kill must be absent from the restart engine's
   profile (the profile records only *executed* runs), and the job
   must end ``done`` with every run landed.

Deliberately NOT named ``bench_*.py``: benchmarks/pytest.ini collects
``bench_*.py`` into the benchmark suite, and this script wants a real
child-process kill, not a pytest fixture.  Run it standalone:

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.engine import ExperimentEngine  # noqa: E402
from repro.harness.service import CampaignService  # noqa: E402

#: Give slow CI boxes room; the quick campaign itself runs in seconds.
DEADLINE_S = 300


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []) + sys.path)
    return env


def cli(*args: str, **popen_kw) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.harness", "serve", *args]
    return subprocess.run(cmd, env=cli_env(), text=True,
                          capture_output=True, timeout=DEADLINE_S,
                          **popen_kw)


def journaled_keys(journal: Path) -> set:
    if not journal.exists():
        return set()
    found = set()
    for line in journal.read_text().splitlines():
        try:
            found.add(json.loads(line)["key"])
        except (ValueError, KeyError):
            continue  # torn final line from the kill
    return found


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    spool, cache = tmp / "spool", tmp / "cache"
    journal = spool / "journal.jsonl"

    submit = cli("submit", "--quick", "--seeds", "2",
                 "--label", "smoke", "--spool", str(spool))
    assert submit.returncode == 0, submit.stderr
    job_id = submit.stdout.strip().splitlines()[-1]
    print(f"[smoke] submitted {job_id}")

    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "serve", "start",
         "--drain", "--spool", str(spool), "--cache-dir", str(cache),
         "-j", "1"],
        env=cli_env())
    deadline = time.monotonic() + DEADLINE_S
    try:
        while time.monotonic() < deadline:
            if journaled_keys(journal):
                break
            if victim.poll() is not None:
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            print("[smoke] SIGKILLed the server mid-campaign")
        else:
            print("[smoke] server drained before the kill window "
                  "(machine too fast); restart still asserts "
                  "zero recompute")
    finally:
        victim.wait(timeout=60)

    before = journaled_keys(journal)
    assert before, "nothing landed before the kill: no journal lines"
    print(f"[smoke] {len(before)} result(s) journaled before the kill")

    engine = ExperimentEngine(jobs=1, cache_dir=cache,
                              use_disk_cache=True)
    restarted = CampaignService(spool_dir=spool, engine=engine)
    restarted.serve(drain=True)
    status = restarted.status(job_id)
    assert status["state"] == "done", status
    assert status["landed"] == status["total"], status
    reexecuted = {repr(key) for key in engine.profile} & before
    assert not reexecuted, f"re-executed after restart: {reexecuted}"
    print(f"[smoke] restart completed {job_id}: "
          f"{status['landed']}/{status['total']} landed, "
          f"{status['computed']} computed, {status['replayed']} "
          f"replayed, 0 re-executed")

    summary = cli("summary", job_id, "--spool", str(spool),
                  "--cache-dir", str(cache))
    assert summary.returncode == 0, summary.stderr
    print(summary.stdout.rstrip())
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
