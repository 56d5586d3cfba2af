"""Does the speed probe move with the measured program's own load?

    python3 perfbench/probe_check.py --workload NAME [--rounds 3]

``run.py`` rescales every time by a :class:`run.SpeedProbe` that samples
while the measured child runs on the same CPUs.  This check reads the
probe, interleaved over ``--rounds`` rounds, under four loads:

``idle``     nothing of ours runs beside the probe;
``busy1``    one plain busy-loop process (no program code);
``busy2``    two such processes, as many as the engine's pool workers;
``program``  a cold ``-j 2`` iteration of the workload, as measured.

If ``program`` reads like ``busy2``, the factor follows how many CPUs are
busy, not what the program computes on them: a change to the program's
code moves it only by changing how long both workers stay busy, and at
most by the ``idle``-to-``busy2`` difference.  It prints the median probe
sample per load, in ms, and each one's ratio to ``busy2``.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import run

#: Seconds each synthetic load is held.
HOLD_S = 5.0
BUSY_LOOP = ("import time\n"
             f"end = time.perf_counter() + {HOLD_S}\n"
             "while time.perf_counter() < end:\n"
             "    pass\n")


def probe_under(busy: int) -> float:
    """Mean probe sample, in ms, while ``busy`` busy-loop processes run."""
    procs = [subprocess.Popen([sys.executable, "-c", BUSY_LOOP])
             for _ in range(busy)]
    try:
        with run.SpeedProbe() as probe:
            time.sleep(HOLD_S)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return 1000.0 * probe.mean_s()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    readings: dict[str, list[float]] = {}
    work = run.WORK / "probe-check"
    try:
        for round_ in range(args.rounds):
            for name, busy in (("idle", 0), ("busy1", 1), ("busy2", 2)):
                readings.setdefault(name, []).append(probe_under(busy))
            shutil.rmtree(work, ignore_errors=True)
            cold = run.spawn(args.workload, 1, "cold", work)
            readings.setdefault("program", []).append(cold["probe_ms"])
            print(f"round {round_}: " + ", ".join(
                f"{name}={values[-1]:.3f}"
                for name, values in readings.items()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = median(readings["busy2"])
    print(f"\n{args.workload}: median probe sample over {args.rounds} "
          "rounds")
    for name, values in readings.items():
        print(f"  {name:<8} {median(values):8.3f} ms  "
              f"x{median(values) / reference:.3f} of busy2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
