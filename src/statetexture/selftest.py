"""Fast release-gate checks: closed-form examples from every module plus the
analytic-vs-ED cross-validation on a small chain.  Runs in well under a
minute and is wired to the ``selftest`` CLI command."""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from . import ising, monotones, purity, roof, states, texture

Check = Tuple[str, Callable[[], None]]


def _close(got, want, tol, label=""):
    if not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol):
        raise AssertionError(f"{label}: got {got!r}, expected {want!r} (tol {tol})")


def _bell() -> states.PureState:
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return states.PureState(v, (2, 2))


def _checks() -> List[Check]:
    checks: List[Check] = []
    add = lambda name: (lambda fn: checks.append((name, fn)) or fn)

    @add("spectral: diagonal state")
    def _():
        rho = states.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        _close(states.spectral_decompose(rho).eigenvalues, [0.7, 0.3], 1e-12)

    @add("spectral: maximally mixed")
    def _():
        rho = states.DensityMatrix(np.eye(2, dtype=complex) / 2)
        _close(states.spectral_decompose(rho).eigenvalues, [0.5, 0.5], 1e-12)

    @add("partial trace: Bell marginal")
    def _():
        red = states.partial_trace(_bell().projector(), keep=[0])
        _close(red.matrix, np.eye(2) / 2, 1e-12)

    @add("partial trace: GHZ pair")
    def _():
        v = np.zeros(8)
        v[0] = v[7] = 1.0 / math.sqrt(2.0)
        red = states.partial_trace(states.PureState(v, (2, 2, 2)).projector(), keep=[0, 1])
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 0.5
        _close(red.matrix, want, 1e-12)

    @add("schmidt: Bell and product")
    def _():
        _close(states.schmidt_decompose(_bell(), [0]).coefficients, [0.5, 0.5], 1e-12)
        e00 = states.PureState(np.eye(4)[0], (2, 2))
        _close(states.schmidt_decompose(e00, [0]).coefficients, [1.0, 0.0], 1e-12)

    @add("random state: determinism and invariants")
    def _():
        a = states.random_state(4, "mixed", seed=9)
        b = states.random_state(4, "mixed", seed=9)
        _close(a.matrix, b.matrix, 0.0)
        _close(np.linalg.norm(states.random_state(2, "pure", seed=1).amplitudes), 1.0, 1e-12)

    @add("texture: texture-less and maximally mixed")
    def _():
        basis = texture.computational_basis(4)
        s1 = texture.texture_less_state(basis)
        _close(texture.texture_in_basis(s1, basis).texture, 0.0, 1e-12)
        mixed = states.DensityMatrix(np.eye(4, dtype=complex) / 4)
        _close(texture.texture_in_basis(mixed, basis).texture, 0.75, 1e-12)

    @add("texture: Fourier states are maximal")
    def _():
        f = texture.fourier_basis(5)
        for j in range(1, 5):
            rep = texture.texture_in_basis(states.PureState(f.unitary[:, j]),
                                           texture.computational_basis(5))
            _close(rep.texture, 1.0, 1e-12, f"fourier column {j}")

    @add("texture: extrema on diag(0.7, 0.3)")
    def _():
        rho = states.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        ex = texture.texture_extrema(rho)
        _close([ex.t_max, ex.t_min], [0.7, 0.3], 1e-12)

    @add("rugosity: product states")
    def _():
        plus = states.PureState(np.full(8, 1 / math.sqrt(8)), (2, 2, 2))
        _close(texture.rugosity_pure(plus), 0.0, 1e-12)
        zero = states.PureState(np.eye(8)[:, 0], (2, 2, 2))
        _close(texture.rugosity_pure(zero), 3 * math.log(2), 1e-12)

    @add("purity: extremes and diag(0.7, 0.3)")
    def _():
        _close(purity.texture_purity(states.DensityMatrix(np.eye(4, dtype=complex) / 4)),
               0.0, 1e-12)
        psi = states.random_state(3, "pure", seed=5)
        _close(purity.texture_purity(psi.projector()), 3.0, 1e-10)
        _close(purity.texture_purity(states.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))),
               0.8, 1e-12)

    @add("purity: Renyi values and qubit bound equality")
    def _():
        rho = states.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        _close(purity.renyi_purity(rho, 2.0), math.log2(1.16), 1e-12)
        report = purity.check_renyi2_bound(rho)
        if not report.bound_satisfied:
            raise AssertionError("Renyi-2 bound violated on a qubit state")
        _close(report.renyi_purities[2.0], report.renyi2_bound_rhs, 1e-10)

    @add("purity: single-shot cost")
    def _():
        pure = states.random_state(2, "pure", seed=2).projector()
        _close(purity.single_shot_cost(pure), 1, 0)
        rho = states.DensityMatrix(np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex))
        _close(purity.single_shot_cost(rho), 2, 0)
        if purity.single_shot_cost(states.DensityMatrix(np.eye(2, dtype=complex) / 2)) is not None:
            raise AssertionError("full-rank state must have no single-shot cost")

    @add("coherence monotone closed form")
    def _():
        _close(monotones.coherence_monotone(states.PureState([1, 0])).value, 0.0, 1e-12)
        _close(monotones.coherence_monotone(
            states.PureState(np.ones(2) / math.sqrt(2))).value, 0.5, 1e-12)
        _close(monotones.coherence_monotone(
            states.PureState(np.ones(3) / math.sqrt(3))).value, 2 / 3, 1e-12)

    @add("magic monotone closed form")
    def _():
        _close(monotones.nonstabilizerness_monotone(states.PureState([1, 0])).value, 0.0, 1e-12)
        _close(monotones.nonstabilizerness_monotone(
            states.PureState(np.ones(2) / math.sqrt(2))).value, 0.0, 1e-12)
        tstate = states.PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2.0))
        _close(monotones.nonstabilizerness_monotone(tstate).value,
               0.5 * (1 - 1 / math.sqrt(2)), 1e-12)

    @add("entanglement and GGM closed forms")
    def _():
        _close(monotones.entanglement_monotone(_bell(), [0]).value, 0.5, 1e-12)
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(0.9), math.sqrt(0.1)
        _close(monotones.entanglement_monotone(states.PureState(v, (2, 2)), [0]).value,
               0.1, 1e-12)
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1 / math.sqrt(2)
        _close(monotones.gme_monotone(states.PureState(ghz, (2, 2, 2))).value, 0.5, 1e-12)
        w = np.zeros(8)
        w[1] = w[2] = w[4] = 1 / math.sqrt(3)
        _close(monotones.gme_monotone(states.PureState(w, (2, 2, 2))).value, 1 / 3, 1e-10)

    @add("local texture bound: witness tightness")
    def _():
        val = monotones.sampled_local_texture_bound(_bell(), [0], samples=4, seed=0)
        if val < 0.5 - 1e-10:
            raise AssertionError(f"Bell local-texture bound {val} below 1/2")
        prod = states.PureState(np.kron([1, 0], [1, 0]).astype(float), (2, 2))
        _close(monotones.sampled_local_texture_bound(prod, [0], samples=4, seed=0),
               0.0, 1e-10)

    @add("convex roof: free mixture and pure state")
    def _():
        mix = np.zeros((4, 4), dtype=complex)
        mix[0, 0] = mix[3, 3] = 0.5
        rho = states.DensityMatrix(mix, (2, 2))
        cfg = roof.RoofConfig(cardinality=4, restarts=2, seed=3)
        _close(roof.convex_roof(rho, "entanglement_bipartite", cfg).value, 0.0, 1e-6)
        res = roof.convex_roof(_bell().projector(), "entanglement_bipartite",
                               roof.RoofConfig(cardinality=2, restarts=1, seed=3))
        _close(res.value, 0.5, 1e-8)

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

    @add("bogoliubov modes: unit norm and dispersion at h=0")
    def _():
        for mode in ising.bogoliubov_modes(ising.ChainSpec(4, 0.0)):
            _close(mode.u ** 2 + mode.v_im ** 2, 1.0, 1e-12)
            _close(mode.lam, 1.0, 1e-12)

    @add("texture of Bell projector in computational basis")
    def _():
        rep = texture.texture_in_basis(_bell(), texture.computational_basis(4))
        _close(rep.grand_sum, 2.0, 1e-12)
        _close(rep.texture, 0.5, 1e-12)

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
