"""Steadiness check: run a workload k times and summarize each metric.

    python3 bench/steady.py --workload roof --runs 10
    python3 bench/steady.py --workload all --runs 10 --other ../parent-checkout

Run i (from 1) gets seed i, at the run length of BENCHMARK.json.  With
``--other DIR`` every seed also runs in that second checkout, alternating
which copy goes first.  For each metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, and the max/min ratio.  This is how the
bounds were set and how they are rechecked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_record"] = json.loads(lines[-2])["run_record"]
    return result


def summarize(label: str, results, bounds) -> dict:
    medians = {}
    failed = {(r["failed"], r["attempted"]) for r in results}
    shares = sorted({f / a for f, a in failed})
    print(f"\n{label}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed share(s) {shares}")
    print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6} {'max/min':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        lo = min(values)
        ratio = max(values) / lo if lo else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"  {name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
              f"{bound if bound is not None else '':>6} {ratio:>8.3f}{flag}")
        medians[name] = med
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--other", type=Path, help="a second checkout to alternate with")
    parser.add_argument("--save", type=Path, help="write every result to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    roots = [ROOT] + ([args.other.resolve()] if args.other else [])

    saved = {}
    for workload in workloads:
        results = {root: [] for root in roots}
        for i in range(args.runs):
            seed = i + 1
            order = roots if i % 2 == 0 else roots[::-1]
            for root in order:
                results[root].append(run_once(root, workload, seed, seconds))
        medians = [summarize(f"{workload} @ {root}", results[root], bounds) for root in roots]
        if len(roots) == 2:
            print(f"\n{workload}: other / this median")
            for name in medians[0]:
                base = medians[0][name]
                print(f"  {name:<44} {medians[1][name] / base if base else float('nan'):>8.4f}")
        saved[workload] = {str(root): results[root] for root in roots}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
