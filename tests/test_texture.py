import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from oracles import haar_unitary, random_density
from statetexture import (DensityMatrix, InvalidStateError, OrthonormalBasis,
                          PureState, RoofConfig, UsageError, check_renyi2_bound,
                          computational_basis, concurrence_two_qubit, convex_roof,
                          fourier_basis, random_state,
                          renyi_purity, rugosity_pure, single_shot_cost,
                          spectral_decompose, texture_extrema, texture_in_basis,
                          texture_purity)
from statetexture.texture import BASIS_TOL, _unitary_mapping_uniform_to

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def texture_less_state(basis):
    """The zero-texture state of a basis: the uniform superposition of its
    kets, the ket the basis forms once and every texture reads."""
    return PureState(basis._uniform_ket)


class TestTextureInBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_texture_less_projector_is_free(self, d):
        basis = computational_basis(d)
        rep = texture_in_basis(texture_less_state(basis), basis)
        assert abs(rep.texture) < 1e-12
        assert abs(rep.rugosity) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_maximally_mixed(self, d, maximally_mixed):
        rep = texture_in_basis(maximally_mixed(d), computational_basis(d))
        assert abs(rep.grand_sum - 1.0) < 1e-12
        assert abs(rep.texture - (1.0 - 1.0 / d)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_fourier_states_maximal(self, d):
        f = fourier_basis(d)
        for j in range(1, d):
            rep = texture_in_basis(PureState(f.unitary[:, j]), computational_basis(d))
            assert abs(rep.texture - 1.0) < 1e-12

    def test_bell_state(self, bell_state):
        rep = texture_in_basis(bell_state, computational_basis(4))
        assert abs(rep.grand_sum - 2.0) < 1e-12
        assert abs(rep.texture - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            texture_in_basis(random_state(3, "mixed", seed=0), computational_basis(2))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        basis = OrthonormalBasis(haar_unitary(4, rng))
        for seed in range(20):
            r1 = DensityMatrix(random_density(4, rng))
            r2 = DensityMatrix(random_density(4, rng))
            p = rng.uniform()
            mixed = DensityMatrix(p * r1.matrix + (1 - p) * r2.matrix)
            lhs = texture_in_basis(mixed, basis).texture
            rhs = (p * texture_in_basis(r1, basis).texture
                   + (1 - p) * texture_in_basis(r2, basis).texture)
            assert abs(lhs - rhs) < 1e-12

    def test_range_and_bijection(self):
        rng = np.random.default_rng(9)
        for seed in range(50):
            d = int(rng.integers(2, 9))
            rho = DensityMatrix(random_density(d, rng))
            rep = texture_in_basis(rho, OrthonormalBasis(haar_unitary(d, rng)))
            assert -1e-15 <= rep.texture <= 1.0 + 1e-15
            if math.isfinite(rep.rugosity):
                assert abs(rep.texture - (1.0 - math.exp(-rep.rugosity))) < 1e-12
            assert rep.imag_residual <= 1e-10


class TestTextureLessState:
    def test_computational_d2(self):
        s1 = texture_less_state(computational_basis(2))
        assert np.allclose(s1.amplitudes, np.full(2, 1 / math.sqrt(2)), rtol=0, atol=1e-15)

    def test_computational_d4(self):
        s1 = texture_less_state(computational_basis(4))
        assert np.allclose(s1.amplitudes, np.full(4, 0.5), rtol=0, atol=1e-15)

    def test_hadamard_basis(self):
        s1 = texture_less_state(OrthonormalBasis(HADAMARD))
        assert np.allclose(s1.amplitudes, [1.0, 0.0], rtol=0, atol=1e-15)


class TestFourierBasis:
    def test_d2_columns(self):
        f = fourier_basis(2).unitary
        assert np.allclose(f[:, 0], np.full(2, 1 / math.sqrt(2)), rtol=0, atol=1e-15)
        assert np.allclose(f[:, 1], np.array([1, -1]) / math.sqrt(2), rtol=0, atol=1e-12)

    def test_d3_second_column(self):
        f = fourier_basis(3).unitary
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(f[:, 1], np.array([1, w, w ** 2]) / math.sqrt(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 16, 32])
    def test_unitarity(self, d):
        f = fourier_basis(d).unitary
        assert np.max(np.abs(f.conj().T @ f - np.eye(d))) <= 1e-12


class TestPackageBases:
    # the package's own bases are orthonormal by construction and skip the
    # O(d^3) check of OrthonormalBasis; this is that check, made here
    @pytest.mark.parametrize("d", [1, 2, 7, 64, 1024])
    @pytest.mark.parametrize("make", [computational_basis, fourier_basis])
    def test_orthonormal_by_construction(self, make, d):
        basis = make(d)
        u = basis.unitary
        gram = u.conj().T @ u
        gram.reshape(-1)[::d + 1] -= 1.0
        assert np.max(np.abs(gram)) <= BASIS_TOL
        assert not u.flags.writeable and not basis._uniform_ket.flags.writeable
        ket = u @ np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        assert np.array_equal(basis._uniform_ket, ket)

    def test_user_unitaries_are_still_checked(self):
        u = fourier_basis(4).unitary.copy()
        u[:, 1] = u[:, 0]
        with pytest.raises(UsageError, match="residual"):
            OrthonormalBasis(u)


class TestExtrema:
    def test_diagonal(self):
        ex = texture_extrema(DensityMatrix(np.diag([0.7, 0.3]).astype(complex)))
        assert abs(ex.t_max - 0.7) < 1e-12
        assert abs(ex.t_min - 0.3) < 1e-12

    def test_maximally_mixed(self, maximally_mixed):
        ex = texture_extrema(maximally_mixed(4))
        assert abs(ex.t_max - 0.75) < 1e-12
        assert abs(ex.t_min - 0.75) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_pure_state(self, d):
        ex = texture_extrema(random_state(d, "pure", seed=d))
        assert abs(ex.t_max - 1.0) < 1e-10
        assert abs(ex.t_min) < 1e-10

    def test_sandwich_and_witnesses(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            d = int(rng.integers(2, 7))
            rho = DensityMatrix(random_density(d, rng))
            ex = texture_extrema(rho)
            lam = spectral_decompose(rho).eigenvalues
            assert abs(ex.t_max - (1.0 - lam[-1])) < 1e-10
            assert abs(ex.t_min - (1.0 - lam[0])) < 1e-10
            for _ in range(100):
                basis = OrthonormalBasis(haar_unitary(d, rng))
                t = texture_in_basis(rho, basis).texture
                assert ex.t_min - 1e-10 <= t <= ex.t_max + 1e-10
            u_max, u_min = ex.witness_unitaries
            assert abs(texture_in_basis(rho, OrthonormalBasis(u_max)).texture - ex.t_max) < 1e-10
            assert abs(texture_in_basis(rho, OrthonormalBasis(u_min)).texture - ex.t_min) < 1e-10


@pytest.fixture
def decompositions(monkeypatch):
    """Every np.linalg.eigh, eigvalsh and eigvals call, as (name, shape)."""
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestOneSpectrumPerState:
    def test_every_spectral_quantity_shares_one_eigh(self, decompositions):
        # validation's eigh is the spectrum of every report
        rho = random_state(4, "mixed", seed=8, subsystem_dims=(2, 2))
        spectral_decompose(rho)
        texture_extrema(rho).witness_unitaries
        check_renyi2_bound(rho, (0.5, 2.0, 3.0))
        texture_purity(rho)
        renyi_purity(rho, 2.0)
        single_shot_cost(rho)
        convex_roof(rho, "entanglement_bipartite", RoofConfig(restarts=1))
        concurrence_two_qubit(rho)
        # the second is the exact two-qubit roof's Takagi factorization: the
        # eigh of an 8 x 8 real matrix built from the state's eigenvectors;
        # the third is of the roof's 4 x 4 real rotation matrix, not of the
        # state, so the state is still decomposed once; the concurrence takes
        # singular values of the same spectrum's rows
        assert decompositions == [("eigh", (4, 4)), ("eigh", (8, 8)), ("eigh", (4, 4))]

    def test_pure_states_form_no_projector(self, decompositions):
        # 12 qubits: a d x d complex array takes 268 MB; the basis of the
        # computational kets is given without its O(d^3) check and its
        # unitary, as texture_in_basis reads only its dimension and its
        # zero-texture ket
        d = 2 ** 12
        psi = random_state(d, "pure", seed=5)
        basis = object.__new__(OrthonormalBasis)
        object.__setattr__(basis, "unitary", np.broadcast_to(np.complex128(0), (d, d)))
        object.__setattr__(basis, "_uniform_ket", np.full(d, 1.0 / math.sqrt(d), dtype=complex))
        tracemalloc.start()
        try:
            rep = texture_in_basis(psi, basis)
            ex = texture_extrema(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decompositions == []
        assert peak <= 8 * 16 * d
        assert rep.grand_sum == pytest.approx(abs(np.sum(psi.amplitudes)) ** 2, rel=1e-12)
        assert ex.t_max == 1.0 and abs(ex.t_min) <= 1e-15


class TestPureStates:
    """Pure states are read from their amplitudes; the numbers are their
    projector's, to rounding."""

    def test_texture_matches_the_projector(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            psi = PureState(_random_ket(d, rng))
            basis = OrthonormalBasis(haar_unitary(d, rng))
            rep, ref = texture_in_basis(psi, basis), texture_in_basis(psi.projector(), basis)
            assert rep.imag_residual == 0.0
            assert abs(rep.grand_sum - ref.grand_sum) <= 1e-12 * d
            assert abs(rep.rugosity - ref.rugosity) <= 1e-10 or rep.rugosity > 20

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_extrema_and_witnesses(self, d):
        rng = np.random.default_rng(d)
        psi = PureState(_random_ket(d, rng))
        ex, ref = texture_extrema(psi), texture_extrema(psi.projector())
        assert ex.t_max == (1.0 if d > 1 else 0.0)
        assert ex.t_min == 0.0
        assert abs(ex.t_max - ref.t_max) <= 1e-12 and abs(ex.t_min - ref.t_min) <= 1e-12
        for u, t in zip(ex.witness_unitaries, (ex.t_max, ex.t_min)):
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12
            assert abs(texture_in_basis(psi, OrthonormalBasis(u)).texture - t) <= 1e-12

    @pytest.mark.parametrize("scale", [1 + 0.9e-12, 1 - 0.9e-12])
    def test_extrema_within_the_norm_tolerance(self, scale):
        # read with its raw norm, the state above unit norm had t_min = -1.8e-12
        for amplitudes in ([scale, 0.0], [scale]):
            psi = PureState(np.array(amplitudes))
            ex, ref = texture_extrema(psi), texture_extrema(psi.projector())
            assert ex.t_min == 0.0 and ex.t_max == (1.0 if psi.dim > 1 else 0.0)
            assert abs(ex.t_min - ref.t_min) <= 1e-15 and abs(ex.t_max - ref.t_max) <= 1e-15
            # the t_min target is the amplitudes normalized as the projector's
            target = psi.amplitudes / np.linalg.norm(psi.amplitudes)
            assert np.array_equal(ex.witness_targets[1], target)

    def test_basis_ket_state(self):
        # psi = e_0 has its smallest amplitude elsewhere; psi = uniform has
        # all amplitudes equal, so the t_max target is e_0 less its projection
        for psi in (PureState(np.eye(4)[0]), texture_less_state(computational_basis(4))):
            u_max, u_min = texture_extrema(psi).witness_unitaries
            assert abs(texture_in_basis(psi, OrthonormalBasis(u_max)).texture - 1.0) <= 1e-12
            assert abs(texture_in_basis(psi, OrthonormalBasis(u_min)).texture) <= 1e-12


def _random_ket(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@strat.composite
def _witness_targets(draw):
    """A dimension and a unit target, biased to the cases where a reflection
    onto the uniform vector u can go wrong: e^{i alpha} u, -u, kets
    orthogonal or nearly orthogonal to u, and basis kets."""
    d = draw(strat.integers(1, 32))
    rng = np.random.default_rng(draw(strat.integers(0, 2 ** 32 - 1)))
    u = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    kind = draw(strat.sampled_from(["phase", "minus", "orthogonal", "nearly orthogonal",
                                    "basis", "haar"]))
    if kind == "phase":
        t = np.exp(1j * draw(strat.floats(-math.pi, math.pi))) * u
    elif kind == "minus":
        t = -u
    elif kind == "basis":
        t = np.eye(d, dtype=complex)[draw(strat.integers(0, d - 1))]
    elif kind == "haar" or d == 1:
        t = _random_ket(d, rng)
    else:
        t = _random_ket(d, rng)
        t -= u * np.vdot(u, t)
        t /= np.linalg.norm(t)
        if kind == "nearly orthogonal":
            eps = 10.0 ** -draw(strat.integers(6, 320))
            t = t + eps * np.exp(1j * rng.uniform(0, 2 * np.pi)) * u
            t /= np.linalg.norm(t)
    return u, t


_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestProperties:
    """The witness construction and the paper's texture claims."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_witness_targets())
    def test_witness_is_unitary_and_maps_uniform_to_target(self, case):
        u, t = case
        w = _unitary_mapping_uniform_to(t)
        assert np.max(np.abs(w @ u - t)) <= 1e-12
        assert np.max(np.abs(w.conj().T @ w - np.eye(t.size))) <= 1e-12

    @_PROPERTY_SETTINGS
    @given(strat.integers(1, 8), strat.integers(1, 8), strat.integers(0, 2 ** 32 - 1))
    def test_texture_lies_in_unit_interval(self, d, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, d)
        kets = np.array([_random_ket(d, rng) for _ in range(rank)])
        weights = rng.dirichlet(np.ones(rank))
        mat = (kets.T * weights) @ kets.conj()
        rho = DensityMatrix(0.5 * (mat + mat.conj().T) / np.trace(mat).real)
        for u in (haar_unitary(d, rng), *texture_extrema(rho).witness_unitaries):
            rep = texture_in_basis(rho, OrthonormalBasis(u))
            assert 0.0 <= rep.texture <= 1.0
            assert 0.0 <= rep.grand_sum <= d

    @_PROPERTY_SETTINGS
    @given(strat.integers(1, 8), strat.integers(0, 2 ** 32 - 1))
    def test_extrema_are_unitarily_invariant(self, d, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density(d, rng))
        u = haar_unitary(d, rng)
        rotated = u @ rho.matrix @ u.conj().T
        rotated = DensityMatrix(0.5 * (rotated + rotated.conj().T))
        ex, ex_rot = texture_extrema(rho), texture_extrema(rotated)
        assert abs(ex.t_max - ex_rot.t_max) <= 1e-12
        assert abs(ex.t_min - ex_rot.t_min) <= 1e-12

    @_PROPERTY_SETTINGS
    @given(strat.integers(1, 8), strat.integers(1, 6), strat.integers(0, 2 ** 32 - 1))
    def test_texture_purity_does_not_grow_under_mixed_unitaries(self, d, k, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density(d, rng))
        weights = rng.dirichlet(np.ones(k))
        out = sum(p * v @ rho.matrix @ v.conj().T
                  for p, v in zip(weights, (haar_unitary(d, rng) for _ in range(k))))
        out = DensityMatrix(0.5 * (out + out.conj().T))
        assert texture_purity(out) <= texture_purity(rho) + 1e-12


class TestRugosityPure:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_uniform_superposition(self, n):
        d = 2 ** n
        psi = PureState(np.full(d, 1 / math.sqrt(d)), (2,) * n)
        assert abs(rugosity_pure(psi)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_all_zero_state(self, n):
        d = 2 ** n
        psi = PureState(np.eye(d)[:, 0], (2,) * n)
        assert abs(rugosity_pure(psi) - n * math.log(2)) < 1e-12

    def test_orthogonal_state_is_infinite(self):
        minus = PureState(np.array([1.0, -1.0]) / math.sqrt(2.0))
        with pytest.warns(RuntimeWarning) as records:
            assert rugosity_pure(minus) == math.inf
        assert all(record.filename == __file__ for record in records)

    def test_overlap_rounding_above_one_is_zero_not_negative(self):
        # |sum|^2 / d of (1/2, 1/2, 1/2, 1/2) rounds to 1: -ln of it was -0.0,
        # and a sum just above sqrt(d) gave -8.9e-16
        rugosity = rugosity_pure(PureState(np.ones(4) / 2))
        assert rugosity == 0.0 and math.copysign(1.0, rugosity) == 1.0

    def test_one_dimensional_state_has_positive_zero_rugosity(self):
        rugosity = texture_in_basis(PureState(np.ones(1), (1,)), computational_basis(1)).rugosity
        assert rugosity == 0.0 and math.copysign(1.0, rugosity) == 1.0

    def test_matches_grand_sum_form(self):
        for seed in range(5):
            psi = random_state(8, "pure", seed=seed, subsystem_dims=(2, 2, 2))
            direct = rugosity_pure(psi)
            via_report = texture_in_basis(psi, computational_basis(8)).rugosity
            assert abs(direct - via_report) < 1e-10


class TestValidation:
    def test_basis_must_be_unitary(self):
        with pytest.raises(UsageError):
            OrthonormalBasis(np.ones((2, 2)))

    @pytest.mark.parametrize("unitary", [np.eye(2, 3), np.ones(4), np.ones((1, 1, 1))],
                             ids=["2x3", "vector", "stack"])
    def test_basis_must_be_square(self, unitary):
        with pytest.raises(UsageError, match="must be square"):
            OrthonormalBasis(unitary)

    @pytest.mark.parametrize("unitary, message", [
        ("x", "must be numbers"), ([["1", "0"], ["0", "1"]], "must be numbers"),
        (np.eye(2, dtype=bool), "must be numbers"), (np.zeros((0, 0)), "square and non-empty"),
        ([], "square and non-empty"),
    ], ids=["string", "string-entries", "bool", "empty", "empty-list"])
    def test_basis_must_be_a_matrix_of_numbers(self, unitary, message):
        with pytest.raises(UsageError, match=message):
            OrthonormalBasis(unitary)

    @pytest.mark.parametrize("make", [computational_basis, fourier_basis])
    def test_basis_dimension_must_be_positive(self, make):
        with pytest.raises(UsageError, match="dimension must be >= 1"):
            make(0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308, 1 + 1e-9])
    def test_non_finite_or_huge_basis_entry_rejected(self, entry):
        # nan passed the orthonormality test (resid > tol is false for nan),
        # and 1e308 overflowed in U^dag U with a RuntimeWarning
        u = np.eye(2, dtype=complex)
        u[1, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UsageError):
                OrthonormalBasis(u)

    def test_states_at_the_validation_tolerances_pass(self):
        # an eigenvalue of -9e-11 (PSD_TOL is 1e-10), in both witness bases of
        # its extrema, gave a grand sum of -1.8e-10 or 2 + 1.8e-10, and a
        # Hermiticity residual of 9.8e-13 (HERMITICITY_TOL is 1e-12) at d = 256
        # an imaginary part of 3.2e-8: both were rejected as corrupted
        rho = DensityMatrix(np.diag([1 + 9e-11, -9e-11]).astype(complex))
        grand = [texture_in_basis(rho, OrthonormalBasis(u)).grand_sum
                 for u in texture_extrema(rho).witness_unitaries]
        assert sorted(grand) == [0.0, 2.0]
        d = 256
        skew = DensityMatrix(np.eye(d) / d + 4.9e-13j * (np.ones((d, d)) - np.eye(d)))
        rep = texture_in_basis(skew, computational_basis(d))
        assert rep.imag_residual > 3e-8
        assert abs(rep.grand_sum - 1.0) <= 1e-12

    def test_grand_sum_message_prints_a_plain_number(self):
        bad = object.__new__(DensityMatrix)
        object.__setattr__(bad, "matrix", 3.0 * np.eye(2, dtype=complex))
        object.__setattr__(bad, "subsystem_dims", None)
        with pytest.raises(InvalidStateError, match=r"^grand sum [0-9.]+ outside"):
            texture_in_basis(bad, computational_basis(2))

    def test_corrupted_grand_sum_rejected(self):
        # bypass the DensityMatrix validator to hit the texture-level guard
        rho = random_state(3, "mixed", seed=0)
        bad = object.__new__(DensityMatrix)
        object.__setattr__(bad, "matrix", rho.matrix + 1e-6j * np.eye(3))
        object.__setattr__(bad, "subsystem_dims", None)
        with pytest.raises(InvalidStateError):
            texture_in_basis(bad, computational_basis(3))
