"""statetexture benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload roof --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run record.  Exits non-zero,
without a result, when the checkout has no package or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import CASES, WORKLOADS  # noqa: E402  (needs only numpy)

SETUP_SAMPLES = 5  # fresh processes whose start-to-first-call times give setup_s
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), STATETEXTURE_THREADS=BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _git(*args) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _spawn(args, setup_only: bool, deadline: float):
    """Start a worker, time process start to its READY line, and wait for it."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} worker exceeded the {DEADLINE_S:.0f} s limit")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} worker failed (exit {proc.returncode})")
    return setup, (json.loads(out.strip().splitlines()[-1]) if not setup_only else None)


def _metrics(spec, values):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "statetexture" / "__init__.py").is_file():
        print(f"bench: no statetexture package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    undeclared = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                  if not m["name"].startswith(("roof.gap_to_oracle", "roof.unconverged",
                                               "trace."))} - set(CASES)
    if undeclared:
        print(f"bench: per-layer metrics name unknown cases {sorted(undeclared)}",
              file=sys.stderr)
        return 1

    # set-up samples before and after the measuring process, so that their
    # median spans the machine's speed drift over the run
    setups = [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    setup, result = _spawn(args, False, deadline)
    setups.append(setup)
    setups += [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES // 2)]

    if args.trace:
        values = {"trace.coverage": result["coverage"],
                  "trace.round_s": result["round_s"]}
        values.update(result["extras"])
        for case, stats in result["layers"].items():
            values.update({f"{case}.{k}": v for k, v in stats.items()})
        metrics = _metrics(spec["per_layer"], values)
        width = max(len(c) for c in CASES)
        print(f"{'case':<{width}} {'calls':>7} {'busy_s':>10} {'p50_s':>10}")
        for case, s in result["layers"].items():
            print(f"{case:<{width}} {s['calls']:>7} {s['busy_s']:>10.4f} {s['p50_s']:>10.6f}")
        print(f"trace file: {result['trace_file']}; spans cover "
              f"{100 * result['coverage']:.1f}% of the timed wall time")
    else:
        metrics = _metrics(spec["end_to_end"], {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "round_ref": result["round_ref"],
        })

    revision = _git("rev-parse", "HEAD")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": result["attempted"], "failed": result["failed"],
        "rounds": result["rounds"], "round_s": result["round_s"], "ref_s": result["ref_s"],
        "setup_samples_s": setups,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **result["versions"],
        "blas_threads": {k: _child_env()[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "STATETEXTURE_THREADS")},
        "git_revision": revision or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--", ".")) if revision else None,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
