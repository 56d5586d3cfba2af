"""Steadiness report: is each end-to-end metric resolved by its bound?

    python3 perfbench/steady.py --workload NAME [--runs 10]

Runs ``run.py --trace 0`` once per seed ``0 .. runs - 1`` for
``BENCHMARK.json``'s ``run_seconds``, as the benchmark is run, and prints,
per end-to-end metric of ``BENCHMARK.json``, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the relative spread
``(q3 - q1) / median`` and the bound.  A metric whose spread exceeds its
bound cannot tell a regression from noise: it is flagged ``UNRESOLVED``
(report it as unresolved, never as unchanged).  ``steady`` means the
spread is within a third of the bound.  Beside each time it prints the
spread of the same medians before the speed-probe rescaling (``run.py``'s
``raw`` line), and the spread of the probe itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(series: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, _q2, q3 = quantiles(series, n=4)
    mid = median(series)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in range(args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run ({result['failed']} of "
                  f"{result['attempted']} failed)", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("raw {"):
                for name, value in json.loads(line[4:]).items():
                    raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs, seeds 0..{args.runs - 1}")
    print(f"{'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}  verdict      raw spread")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        mid, q1, q3, spread = summarize(values[name])
        bound = entry["bound"]
        verdict = ("UNRESOLVED" if spread > bound else
                   "steady" if spread <= bound / 3 else "resolved")
        unscaled = (f"{summarize(raw[name])[3]:8.4f}" if name in raw
                    else "")
        print(f"{name:<12} {mid:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{spread:8.4f} {bound:6.3f}  {verdict:<10} {unscaled}")
    if "probe_ms" in raw:
        mid, q1, q3, spread = summarize(raw["probe_ms"])
        print(f"{'probe_ms':<12} {mid:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{spread:8.4f}  (host speed across the runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
