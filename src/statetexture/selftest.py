"""Release-gate cross-checks, wired to the ``selftest`` CLI command.

Each check computes one quantity by two independent routes of the package
(a closed form against its bound, the free-fermion solution against exact
diagonalization), so a fault in either route shows as a disagreement.
Hand-worked values of single functions are pinned by the test suite."""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from . import ising, purity, states, texture

Check = Tuple[str, Callable[[], None]]


def _close(got, want, tol, label=""):
    if not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol):
        raise AssertionError(f"{label}: got {got!r}, expected {want!r} (tol {tol})")


def _checks() -> List[Check]:
    checks: List[Check] = []
    add = lambda name: (lambda fn: checks.append((name, fn)) or fn)

    @add("purity: Renyi values and qubit bound equality")
    def _():
        rho = states.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        _close(purity.renyi_purity(rho, 2.0), math.log2(1.16), 1e-12)
        report = purity.check_renyi2_bound(rho)
        if not report.bound_satisfied:
            raise AssertionError("Renyi-2 bound violated on a qubit state")
        _close(report.renyi_purities[2.0], report.renyi2_bound_rhs, 1e-10)

    @add("ising: analytic vs ED at N=8")
    def _():
        for h in (0.5, 1.0, 3.0):
            spec = ising.ChainSpec(8, h)
            _close(ising.analytic_rugosity(spec), ising.ed_rugosity(spec), 1e-8, f"h={h}")

    @add("ising: pair forms agree at N=8")
    def _():
        spec = ising.ChainSpec(8, 1.0)
        ana = ising.pair_observables(spec)
        ed = ising.ed_pair_observables(spec)
        _close(ana.c_xx, ed.c_xx, 1e-8)
        # the grand sum of the pair state itself against the closed form
        basis = texture.computational_basis(4)
        _close(texture.texture_in_basis(ana.rho_pair, basis).rugosity, ana.pair_rugosity, 1e-10)
        _close(texture.texture_in_basis(ed.rho_pair, basis).rugosity, ed.pair_rugosity, 1e-8)

    @add("ising: ED energy vs dispersion sum at N=8")
    def _():
        spec = ising.ChainSpec(8, 1.5)
        _close(ising.ed_ground(spec).energy, ising.dispersion_ground_energy(spec), 1e-9)

    return checks


def run_selftest() -> int:
    """Run every check, print one PASS/FAIL line each, return the number of
    failures."""
    checks = _checks()
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
