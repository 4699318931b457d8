import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as strat

from oracles import haar_unitary, random_density
from statetexture import (DensityMatrix, PureState, UsageError, check_renyi2_bound,
                          random_state, renyi_purity, single_shot_cost,
                          spectral_decompose, texture_purity)
from statetexture.purity import BOUND_SLACK

# orders across (0, 1e308], the ones next to 1 included, in increasing order
ORDERS = (1e-300, 1e-3, 0.5, 0.9, 1 - 1e-12, 1 - 2 ** -52, 1 - 2 ** -53, 1.0, 1 + 2 ** -52,
          1 + 1e-12, 1 + 1e-6, 1.4, 2.0, 3.0, 10.0, 1e3, 1e308)


@strat.composite
def spectra(draw):
    """Density matrices of dimension 2..16, about a third of them rank-deficient."""
    d = draw(strat.integers(2, 16))
    rank = draw(strat.sampled_from([d, d, draw(strat.integers(1, d))]))
    rng = np.random.default_rng(draw(strat.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(0.5 * (rho + rho.conj().T))


def _inverse_sqrt(s):
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.conj().T


@strat.composite
def unital_channels(draw):
    """Kraus operators of a unital channel on d = 2..5, 2 to 4 of them.

    Gaussian operators are scaled alternately to trace preservation
    (sum K^dag K = I) and to unitality (sum K K^dag = I), which is operator
    Sinkhorn scaling.  It converges for almost every draw, mostly within 100
    rounds; a draw whose trace-preservation residual is still above 1e-13
    after 500 rounds is discarded (``assume``).
    """
    d = draw(strat.integers(2, 5))
    k = draw(strat.integers(2, 4))
    rng = np.random.default_rng(draw(strat.integers(0, 2 ** 32 - 1)))
    kraus = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    for _ in range(500):
        kraus = kraus @ _inverse_sqrt(np.einsum("kji,kjl->il", kraus.conj(), kraus))
        kraus = _inverse_sqrt(np.einsum("kij,klj->il", kraus, kraus.conj())) @ kraus
        tp = np.einsum("kji,kjl->il", kraus.conj(), kraus)
        if np.max(np.abs(tp - np.eye(d))) <= 1e-13:
            return kraus
    assume(False)


def _purity_change(kraus, rho):
    """Texture purity of the channel's output less that of its input."""
    out = np.einsum("kij,jl,kml->im", kraus, rho.matrix, kraus.conj())
    return texture_purity(DensityMatrix(0.5 * (out + out.conj().T))) - texture_purity(rho)


class TestUnitalChannels:
    """The texture purity does not rise under unital channels (the paper's
    claim, in every dimension), with a non-unital channel as the control."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(unital_channels(), strat.integers(0, 2 ** 32 - 1))
    def test_monotone_under_unital_channels(self, kraus, seed):
        rho = DensityMatrix(random_density(kraus.shape[-1], np.random.default_rng(seed)))
        assert _purity_change(kraus, rho) <= 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(strat.integers(0, 2 ** 32 - 1))
    def test_monotone_under_werner_holevo(self, seed):
        # rho -> (I - rho^T) / 2 on d = 3 is unital but not a mixture of
        # unitaries; its Kraus operators are (|i><j| - |j><i|) / sqrt(2), i < j
        kraus = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            k = np.zeros((3, 3))
            k[i, j], k[j, i] = 1.0, -1.0
            kraus.append(k / math.sqrt(2.0))
        rho = DensityMatrix(random_density(3, np.random.default_rng(seed)))
        out = np.einsum("kij,jl,kml->im", np.array(kraus), rho.matrix, np.array(kraus))
        assert np.allclose(out, (np.eye(3) - rho.matrix.T) / 2, rtol=0, atol=1e-15)
        assert _purity_change(np.array(kraus), rho) <= 1e-10

    def test_amplitude_damping_raises_it(self):
        # the control: amplitude damping is not unital, and the same check
        # flags it on at least one draw of a qubit state and a damping rate
        rng = np.random.default_rng(5)
        changes = []
        for _ in range(20):
            gamma = rng.uniform(0.05, 0.95)
            kraus = np.array([[[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]],
                              [[0.0, math.sqrt(gamma)], [0.0, 0.0]]])
            changes.append(_purity_change(kraus, DensityMatrix(random_density(2, rng))))
        assert max(changes) > 1e-3


class TestTexturePurity:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_maximally_mixed_is_free(self, d, maximally_mixed):
        assert abs(texture_purity(maximally_mixed(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_pure_states_are_maximal(self, d):
        rho = random_state(d, "pure", seed=d).projector()
        assert abs(texture_purity(rho) - d) < 1e-10

    def test_qubit_example(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert abs(texture_purity(rho) - 0.8) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            d = int(rng.integers(2, 9))
            rho = DensityMatrix(random_density(d, rng))
            u = haar_unitary(d, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(texture_purity(rho) - texture_purity(rotated)) < 1e-10

    def test_faithfulness(self):
        rng = np.random.default_rng(4)
        for seed in range(50):
            d = int(rng.integers(2, 9))
            rho = DensityMatrix(random_density(d, rng))
            lam = np.linalg.eigvalsh(rho.matrix)
            if texture_purity(rho) < 1e-10:
                assert np.max(lam) - np.min(lam) < 1e-9

    def test_convexity(self):
        rng = np.random.default_rng(6)
        for seed in range(30):
            d = int(rng.integers(2, 7))
            parts = [DensityMatrix(random_density(d, rng)) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            mix = DensityMatrix(sum(w * r.matrix for w, r in zip(weights, parts)))
            bound = sum(w * texture_purity(r) for w, r in zip(weights, parts))
            assert texture_purity(mix) <= bound + 1e-10

    def test_monotone_under_mixture_of_unitaries(self):
        rng = np.random.default_rng(8)
        for seed in range(30):
            d = int(rng.integers(2, 7))
            rho = DensityMatrix(random_density(d, rng))
            k = int(rng.integers(2, 9))
            weights = rng.dirichlet(np.ones(k))
            unitaries = [haar_unitary(d, rng) for _ in range(k)]
            out = sum(w * u @ rho.matrix @ u.conj().T
                      for w, u in zip(weights, unitaries))
            channel_out = DensityMatrix(0.5 * (out + out.conj().T))
            assert texture_purity(channel_out) <= texture_purity(rho) + 1e-10


class TestRenyiPurity:
    def test_pure_qubit_alpha2(self):
        rho = random_state(2, "pure", seed=1).projector()
        assert abs(renyi_purity(rho, 2.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [2, 4])
    def test_maximally_mixed_vanishes(self, d, alpha, maximally_mixed):
        assert abs(renyi_purity(maximally_mixed(d), alpha)) < 1e-12

    def test_qubit_example_alpha2(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert abs(renyi_purity(rho, 2.0) - math.log2(1.16)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_huge_alpha_is_the_min_entropy_limit(self, seed):
        # every lambda ** 1e308 underflowed to 0 and log2 of the sum raised
        # a math domain error; S_alpha tends to -log2 lambda_max
        rho = random_state(4, "mixed", seed=seed)
        lam_max = spectral_decompose(rho).eigenvalues[0]
        assert abs(renyi_purity(rho, 1e308) - math.log2(4 * lam_max)) < 1e-12

    def test_tiny_alpha_is_finite(self):
        for rho in (random_state(4, "mixed", seed=1), random_state(4, "pure", seed=1).projector()):
            assert math.isfinite(renyi_purity(rho, 5e-324))

    @pytest.mark.parametrize("alpha", ORDERS)
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(spectra())
    def test_orders_near_one_match_mpmath(self, alpha, drawn):
        # the lambda_max-factored form cancelled near 1: diag(0.7, 0.2, 0.1) gave
        # -0.372 at 1 + 2**-52 and -1.815 at 1 - 2**-53, for a limit of 0.428;
        # every order in (0, 1e308] is checked, on fixed and on drawn spectra,
        # and alpha = 1 against the von Neumann entropy
        rhos = [DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))]
        rhos += [random_state(d, "mixed", seed=d) for d in (2, 5, 16)]
        rhos.append(DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)))
        rhos.append(drawn)
        mpmath.mp.dps = 50
        for rho in rhos:
            lam = spectral_decompose(rho).eigenvalues
            # the reference renormalizes: float eigenvalues do not sum to 1
            p = [mpmath.mpf(float(x)) for x in lam if x > 0]
            logs = [mpmath.log(x / mpmath.fsum(p)) for x in p]
            a, top = mpmath.mpf(alpha), max(logs)
            if alpha == 1.0:
                entropy = -mpmath.fsum(mpmath.exp(x) * x for x in logs)
            else:
                # ln sum q^alpha = alpha ln q_max + ln sum exp(alpha (ln q - ln q_max)):
                # q ** 1e308 is exact too, but takes mpmath ~10 ms per power
                entropy = (a * top + mpmath.log(mpmath.fsum(mpmath.exp(a * (x - top))
                                                            for x in logs))) / (1 - a)
            want = mpmath.log(lam.size, 2) - entropy / mpmath.log(2)
            assert abs(renyi_purity(rho, alpha) - float(want)) < 1e-14

    def test_nonpositive_alpha_rejected(self):
        for alpha in (-1.0, 0.0):
            with pytest.raises(UsageError):
                renyi_purity(random_state(2, "mixed", seed=0), alpha)


class TestOrders:
    """Renyi orders are ints or floats; anything else is named in a ``UsageError``."""

    @pytest.mark.parametrize("alphas, shown", [
        (("x",), "'x'"), ((None,), "None"), ((2.0, "3"), "'3'"), ((True,), "True"),
        ((np.bool_(True),), "True"), ((2 + 0j,), "(2+0j)"), ((np.complex128(2),), "(2+0j)"),
        (([2.0],), "[2.0]"),
    ], ids=["letter", "none", "numeric-string", "bool", "numpy-bool", "complex",
            "numpy-complex", "list"])
    def test_non_numbers_are_named(self, alphas, shown):
        rho = random_state(3, "mixed", seed=9)
        for call in (lambda: check_renyi2_bound(rho, alphas),
                     lambda: renyi_purity(rho, alphas[-1])):
            with pytest.raises(UsageError, match=re.escape(f"alpha must be a number, got {shown}")):
                call()

    @pytest.mark.parametrize("alphas", [2.0, 3, None])
    def test_orders_must_be_a_sequence(self, alphas):
        with pytest.raises(UsageError, match=f"alphas must be a sequence of orders, got {alphas}"):
            check_renyi2_bound(random_state(3, "mixed", seed=9), alphas)

    def test_numpy_and_integer_orders_are_floats(self):
        rho = random_state(3, "mixed", seed=9)
        report = check_renyi2_bound(rho, (np.float32(0.5), 3, np.int64(2)))
        assert list(report.renyi_purities) == [0.5, 3.0, 2.0]
        assert all(type(a) is float for a in report.renyi_purities)
        assert report.renyi_purities == check_renyi2_bound(rho, np.array([0.5, 3.0, 2.0])).renyi_purities
        assert renyi_purity(rho, np.int64(3)) == report.renyi_purities[3.0]


class TestRenyi2Bound:
    def test_qubit_equality_example(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        report = check_renyi2_bound(rho)
        assert report.bound_satisfied
        assert abs(report.renyi_purities[2.0] - math.log2(1.16)) < 1e-12
        assert abs(report.renyi2_bound_rhs - math.log2(1.16)) < 1e-12

    def test_maximally_mixed_equality(self, maximally_mixed):
        for d in (2, 5):
            report = check_renyi2_bound(maximally_mixed(d))
            assert report.bound_satisfied
            assert abs(report.renyi_purities[2.0]) < 1e-12
            assert abs(report.renyi2_bound_rhs) < 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(spectra())
    def test_bound_holds_on_random_states(self, rho):
        # P_alpha is non-decreasing in alpha, so the paper's bound
        # P_2 >= log2(1 + P^2 / 2d) holds at every alpha >= 2; qubits attain it
        report = check_renyi2_bound(rho, ORDERS)
        assert report.bound_satisfied
        values = [report.renyi_purities[a] for a in ORDERS]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        rhs = report.renyi2_bound_rhs
        assert all(report.renyi_purities[a] >= rhs - BOUND_SLACK for a in ORDERS if a >= 2)
        if rho.dim == 2:
            assert abs(report.renyi_purities[2.0] - rhs) < 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 0.5])
    def test_bound_fails_below_order_two(self, alpha):
        # negative control: P_alpha < P_2 for a mixed qubit, so the bound of
        # test_bound_holds_on_random_states is restricted to alpha >= 2
        report = check_renyi2_bound(DensityMatrix(np.diag([0.7, 0.3]).astype(complex)),
                                    (alpha,))
        assert report.renyi_purities[alpha] < report.renyi2_bound_rhs - BOUND_SLACK

    def test_qubit_equality_on_random_states(self):
        rng = np.random.default_rng(14)
        for seed in range(50):
            report = check_renyi2_bound(DensityMatrix(random_density(2, rng)))
            assert abs(report.renyi_purities[2.0] - report.renyi2_bound_rhs) < 1e-10

    def test_requested_alphas_reported(self):
        report = check_renyi2_bound(random_state(3, "mixed", seed=9), alphas=(0.5, 3.0))
        assert set(report.renyi_purities) == {0.5, 3.0}


class TestPureStateSpectrum:
    """A pure state is read as its normalized projector, without one."""

    @pytest.mark.parametrize("psi", [
        random_state(8, "pure", seed=5, subsystem_dims=(2, 2, 2)),
        # within NORM_TOL of unit norm: the projector is normalized
        PureState(np.array([1.0, 1.0]) / np.sqrt(2.0) * (1 + 0.9e-12)),
        PureState(np.array([1.0])),
    ], ids=["three-qubit", "above-unit-norm", "one-dimensional"])
    def test_matches_the_projector(self, psi):
        got = check_renyi2_bound(psi, (0.5, 1.0, 2.0, 3.0))
        want = check_renyi2_bound(psi.projector(), (0.5, 1.0, 2.0, 3.0))
        assert abs(got.texture_purity - want.texture_purity) <= 1e-12 * psi.dim
        for alpha, value in want.renyi_purities.items():
            # the projector's rounding, eigenvalues near 1e-17, shifts the
            # alpha = 0.5 purity by their square roots
            assert abs(got.renyi_purities[alpha] - value) <= (1e-6 if alpha < 1 else 1e-12)
        assert (got.bound_satisfied, got.single_shot_cost) == (want.bound_satisfied,
                                                                want.single_shot_cost)
        assert got.renyi2_bound_rhs == pytest.approx(want.renyi2_bound_rhs, abs=1e-12)

    def test_no_decomposition(self, monkeypatch):
        psi = random_state(1024, "pure", seed=6)
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert texture_purity(psi) == 1024.0
        assert renyi_purity(psi, 0.5) == renyi_purity(psi, 2.0) == 10.0
        assert single_shot_cost(psi) == 10


class TestSingleShotCost:
    def test_pure_qubit(self):
        assert single_shot_cost(random_state(2, "pure", seed=3).projector()) == 1

    def test_rank_two_in_dimension_four(self):
        rho = DensityMatrix(np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex))
        assert single_shot_cost(rho) == 2

    def test_full_rank_absent(self, maximally_mixed):
        assert single_shot_cost(maximally_mixed(2)) is None
