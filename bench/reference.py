"""Reference figures for the rows of the ROADMAP baseline table.

    python3 bench/reference.py

Times each row once (subprocess rows: the median of five) with BLAS
threads at 1 and prints a table, then the rows as one JSON line.  These are
single measurements for orientation, not the benchmark: the workloads in
run.py are what a change is judged by.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import statetexture as st  # noqa: E402
from workloads import ANALYTIC_GRID, ROOF_CONFIG, roof_panel  # noqa: E402


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def subprocess_s(*argv, repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return statistics.median(
        timed(subprocess.run, [sys.executable, *argv], env=env, check=True,
              capture_output=True) for _ in range(repeats))


def main() -> int:
    rows = [("python -c pass", subprocess_s("-c", "pass")),
            ("import statetexture", subprocess_s("-c", "import statetexture")),
            ("statetexture selftest", subprocess_s("-m", "statetexture.cli", "selftest",
                                                   repeats=3))]
    config = st.RoofConfig(**ROOF_CONFIG)
    for theory, mat, dims, _ in roof_panel():
        if theory == "entanglement_bipartite":
            rho = st.DensityMatrix(mat, dims)
            rows.append((f"convex_roof 2 qubits, criterion-5 settings, tr(rho^2)="
                         f"{np.trace(mat @ mat).real:.3f}", timed(st.convex_roof, rho, theory,
                                                                 config)))
    rho = st.DensityMatrix(roof_panel()[0][1], (2, 2))
    rows.append(("convex_roof 2 qubits, default cardinality 16, 1 restart",
                 timed(st.convex_roof, rho, "entanglement_bipartite", st.RoofConfig(restarts=1))))
    for n in (10, 12, 14, 16, 18):
        rows.append((f"ed_ground n={n}, h=0.5, g=0.3",
                     timed(st.ed_ground, st.ChainSpec(n, 0.5, 0.3))))
    for n in (512, 10 ** 6):
        rows.append((f"analytic_rugosity n={n}", timed(st.analytic_rugosity,
                                                       st.ChainSpec(n, 0.8))))
    for observable in ("full", "pair"):
        rows.append((f"analytic 401-point scan n=512 {observable}",
                     timed(st.scan, st.ChainSpec(512, 0.0), "h", ANALYTIC_GRID,
                           observable=observable, method="analytic")))
    psi = st.random_state(2 ** 12, "pure", seed=12, subsystem_dims=(2,) * 12)
    rows.append(("gme_monotone 12 qubits", timed(st.gme_monotone, psi)))

    width = max(len(label) for label, _ in rows)
    for label, seconds in rows:
        print(f"{label:<{width}}  {seconds * 1e3:10.1f} ms")
    print(json.dumps({label: seconds for label, seconds in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
