"""One benchmark process: set up a workload, time whole rounds, check outputs.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and the
BLAS thread variables set.  Prints ``READY`` once set-up is done (the parent
times process start to that line), then, unless ``--setup-only``, one JSON
line with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy

import oracles
import workloads


class Tracer:
    """Records a span around each public call the benchmark makes.

    Spans live in memory as (name, start, end, op) and are written out when
    the run ends.  With tracing off, ``call`` adds one branch per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.op = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op))


def _same(a, b) -> bool:
    """Exact equality of two outputs built from tuples, lists, dicts, numpy
    arrays and scalars."""
    if isinstance(a, numpy.ndarray) or isinstance(b, numpy.ndarray):
        return (isinstance(a, numpy.ndarray) and isinstance(b, numpy.ndarray)
                and a.shape == b.shape and bool(numpy.array_equal(a, b)))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[key], b[key]) for key in a))
    return a == b


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _layer_stats(spans, case_names):
    durations = {}
    for name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)
    unknown = sorted(set(durations) - set(case_names) - set(workloads.UNLISTED_SPANS))
    if unknown:
        raise RuntimeError(f"spans outside the declared cases: {unknown}")
    stats = {}
    for name in case_names:
        d = durations.get(name, [])
        stats[name] = {"calls": len(d), "busy_s": sum(d),
                       "p50_s": statistics.median(d) if d else 0.0}
    return stats


# The reference block: a fixed piece of numpy and interpreter work that
# shares no code with the package.  On a shared 2-core VM the speed drifts
# by up to 2x over tens of seconds, longer than a run; a round's time
# divided by the median reference time of the same run cancels most of it.
REF_EVERY_S = 0.5  # operation time between two reference blocks
_REF_SMALL = numpy.random.default_rng(0).standard_normal((12, 12))
_REF_SMALL = _REF_SMALL + _REF_SMALL.T
_REF_LARGE = numpy.random.default_rng(1).standard_normal((200, 200))


def _reference() -> float:
    """Seconds for one reference block (about 35 ms on a 2-core VM)."""
    start = time.perf_counter()
    for _ in range(300):
        numpy.linalg.eigh(_REF_SMALL)
    total = 0
    for i in range(100_000):
        total += i * i % 7
    numpy.linalg.svd(_REF_LARGE)
    return time.perf_counter() - start


def _versions() -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore", RuntimeWarning)

    import statetexture

    src = (Path(args.root) / "src").resolve()
    if src not in Path(statetexture.__file__).resolve().parents:
        raise RuntimeError(f"statetexture imported from {statetexture.__file__}, not {src}")
    work = workloads.WORKLOADS[args.workload](args.seed, Path(args.root))
    tracer = Tracer(bool(args.trace))
    work.warmup()
    print("READY", flush=True)
    if args.setup_only:
        work.close()
        return 0

    oracles.self_check()
    ops = work.ops()
    # Round 0's outputs are kept and checked against the oracles after the
    # loop; every later round must reproduce them exactly.  Checking after
    # the loop keeps the oracles' memory out of peak_rss_mb, and comparing
    # later rounds at once keeps stored outputs from growing with the run.
    rounds, op_times, first, errors, changed = [], [], None, [], []
    refs, since_ref = [_reference()], 0.0
    started = time.perf_counter()
    while not rounds or sum(rounds) < args.seconds:
        outputs, times = [], []
        for k, op in enumerate(ops):
            tracer.op = k
            op_start = time.perf_counter()
            try:
                outputs.append(op.run(tracer.call))
            except Exception as exc:  # an operation that raises counts as failed
                outputs.append(None)
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - op_start)
            since_ref += times[-1]
            if since_ref >= REF_EVERY_S:  # between operations, outside their times
                refs.append(_reference())
                since_ref = 0.0
        rounds.append(sum(times))
        op_times.append(times)
        if first is None:
            first = outputs
        else:
            changed += [ops[k].name for k, (a, b) in enumerate(zip(first, outputs))
                        if not _same(a, b)]
    peak_rss = _peak_rss_mb(children=work.in_children)

    # A raised exception, or a wrong answer from a known defect, counts the
    # operation as failed; every other wrong answer makes the run incorrect.
    failed = len(errors)
    failures = [f"{name}: output differs from the first round's" for name in changed]
    for k, out in enumerate(first):
        if out is None:
            continue
        problems = ops[k].check(out)
        if problems and ops[k].known_defect:
            failed += len(rounds)
        else:
            failures += [f"{ops[k].name}: {p}" for p in problems]
    failures += work.check_run([(k, out) for k, out in enumerate(first) if out is not None])
    for line in errors[:10] + failures[:10]:
        print(f"bench: {line}", file=sys.stderr)

    # each operation at its median over the rounds: a slow spell of the
    # machine that hits some rounds' operations drops out
    round_s = sum(statistics.median(t) for t in zip(*op_times))
    result = {
        "correct": not failures,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "rounds": rounds,
        "round_s": round_s,
        "ref_s": statistics.median(refs),
        "round_ref": round_s / statistics.median(refs),
        "peak_rss_mb": peak_rss,
        "extras": work.extras(),
        "versions": _versions(),
    }
    if args.trace:
        timed = sum(rounds)
        busy = sum(end - start for name, start, end, _ in tracer.spans)
        result["layers"] = _layer_stats(tracer.spans, workloads.CASES)
        result["coverage"] = busy / timed
        out_dir = Path(args.root) / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "spans": [{"name": n, "start": s - started, "end": e - started, "op": o}
                       for n, s, e, o in tracer.spans]}) + "\n")
        result["trace_file"] = str(trace_file.relative_to(args.root))
    work.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
