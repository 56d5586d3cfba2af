"""Paired A/B of two source trees on one perfbench workload's plan.

    python benchmarks/ab_pairs.py A_ROOT B_ROOT --workload campaign_sparse \\
        --seed 0 --pairs 10

Each side of a pair is a fresh child interpreter of one tree (its
``src`` and its ``perfbench/workloads.py``, imported read-only) that
plans the workload, runs every run of the plan at ``-j 1`` through
``ExperimentEngine.prefetch`` with an empty cache, and pickles the
results.  The pairs alternate which tree runs first, and each side's
time is the child's user plus system CPU as ``wait4`` reports it, so
the parent's own work and the other side never count.

The report gives each side's median and quartiles, the paired ratio
B/A's median and interquartile range, and the pairs B won (it used less
CPU).  The script exits 1 if the two trees' pickled result sets differ
in any pair: a speed comparison of two programs that compute different
results says nothing.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles


def _child(root: Path, workload: str, seed: int, out: Path) -> None:
    """Run ``workload``'s plan from tree ``root`` and pickle the results
    (in plan order, duplicates dropped) to ``out``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads  # perfbench/workloads.py of the same tree

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as cache:
        engine = workloads.make_engine(1, Path(cache))
        keys = workloads.plan(workload, engine, workloads.input_seed(seed))
        engine.prefetch(keys)
        results = [engine.memo[key] for key in dict.fromkeys(keys)]
    out.write_bytes(pickle.dumps(results))


def _side(root: Path, workload: str, seed: int,
          out: Path) -> tuple[float, bytes]:
    """One child run of tree ``root``: its CPU seconds and its pickled
    results."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", str(root), "--workload",
         workload, "--seed", str(seed), "--out", str(out)],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{root}: the child exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, out.read_bytes()


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", type=Path, help="baseline tree")
    parser.add_argument("b", nargs="?", type=Path, help="changed tree")
    parser.add_argument("--workload", default="campaign_sparse")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args.child.resolve(), args.workload, args.seed, args.out)
        return 0
    if args.a is None or args.b is None or args.pairs < 2:
        parser.error("give two trees and at least 2 pairs")
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    for root in trees.values():
        # Build (or load) each tree's compiled extension before timing.
        subprocess.run([sys.executable, "-c", "import repro.coherence"],
                       env={**os.environ, "PYTHONPATH": str(root / "src")},
                       check=True)
    cpu = {"a": [], "b": []}
    same = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        for i in range(args.pairs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            results = {}
            for side in order:
                seconds, results[side] = _side(
                    trees[side], args.workload, args.seed,
                    Path(tmp) / f"{side}.pkl")
                cpu[side].append(seconds)
            same = same and results["a"] == results["b"]
            print(f"pair {i + 1}: a {cpu['a'][-1]:.3f} s, "
                  f"b {cpu['b'][-1]:.3f} s, first {order[0]}"
                  + ("" if results["a"] == results["b"]
                     else ", RESULTS DIFFER"), flush=True)
    ratios = [b / a for a, b in zip(cpu["a"], cpu["b"])]
    report = {"workload": args.workload, "seed": args.seed,
              "pairs": args.pairs, "a": _spread(cpu["a"]),
              "b": _spread(cpu["b"]), "ratio": _spread(ratios),
              "b_wins": sum(b < a for a, b in zip(cpu["a"], cpu["b"])),
              "same_results": same}
    print(json.dumps(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
