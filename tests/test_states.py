import math

import numpy as np
import pytest

from oracles import jacobi_eigenvalues, random_density
from statetexture import (ChainSpec, DensityMatrix, InvalidStateError, PureState, RoofConfig,
                          UsageError, computational_basis, fourier_basis, partial_trace,
                          random_state, schmidt_decompose, spectral_decompose)


class TestInvariants:
    def test_density_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(bad)

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_rejects_nonfinite(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 0] = np.nan
        with pytest.raises(InvalidStateError):
            DensityMatrix(mat)

    def test_pure_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            PureState([1.0, 1.0])

    def test_subsystem_dims_must_factor(self):
        with pytest.raises(UsageError):
            PureState(np.eye(4)[0], (2, 3))

    @pytest.mark.parametrize("make, error, message", [
        (lambda: PureState(np.eye(4)[0], (-2, -2)), UsageError, "must be >= 1"),
        (lambda: PureState([]), InvalidStateError, "at least one amplitude"),
        (lambda: PureState([math.inf, 0.0]), InvalidStateError, "non-finite"),
        (lambda: DensityMatrix(np.eye(2, 3) / 2), InvalidStateError, "must be square"),
    ], ids=["non-positive-dims", "empty", "non-finite", "non-square"])
    def test_malformed_input_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_dims_product_is_not_wrapped(self):
        # (2^32 + 1)(2^32 - 1) = 2^64 - 1, whose square is 1 modulo 2^64
        with pytest.raises(UsageError):
            PureState(np.ones(1), (2 ** 32 + 1, 2 ** 32 - 1) * 2)

    def test_invariants_hold_on_thousand_random_states(self):
        # construction re-validates Hermiticity, trace and positivity
        count = 0
        for d in (2, 3, 4, 6, 8):
            for seed in range(200):
                rho = random_state(d, "mixed", seed=1000 * d + seed)
                assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
                count += 1
        assert count == 1000


class TestSpectralDecompose:
    def test_diagonal(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(spectral_decompose(rho).eigenvalues, [0.7, 0.3], rtol=0, atol=1e-14)

    def test_degenerate(self, maximally_mixed):
        spec = spectral_decompose(maximally_mixed(2))
        assert np.allclose(spec.eigenvalues, [0.5, 0.5], rtol=0, atol=1e-14)
        overlap = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.allclose(overlap, np.eye(2), rtol=0, atol=1e-10)

    def test_random_4x4_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rho = DensityMatrix(random_density(4, rng))
            ours = spectral_decompose(rho).eigenvalues
            ref = jacobi_eigenvalues(rho.matrix)
            assert np.max(np.abs(ours - ref)) < 1e-8

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_reconstruction_roundtrip(self, d):
        rho = random_state(d, "mixed", seed=d)
        spec = spectral_decompose(rho)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-14)
        assert abs(spec.eigenvalues.sum() - 1.0) < 1e-10


class TestNearlyUnitNorm:
    @pytest.mark.parametrize("scale", [1 + 0.9e-12, 1 - 0.9e-12])
    def test_projector_is_valid(self, scale):
        # the norm passes NORM_TOL, and the raw projector's trace, 1 +- 1.8e-12,
        # would not pass TRACE_TOL
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0) * scale)
        rho = psi.projector()
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-15
        assert np.allclose(rho.matrix, 0.5, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("make, number", [
        (lambda: PureState([1.5, 0.0]), "1.5"),
        (lambda: DensityMatrix(np.eye(2, dtype=complex)), "(2+0j)"),
    ], ids=["norm", "trace"])
    def test_messages_print_plain_numbers(self, make, number):
        with pytest.raises(InvalidStateError) as info:
            make()
        assert number in str(info.value) and "np." not in str(info.value)


class TestSpectrumMemo:
    def test_repeated_calls_return_the_same_spectrum(self):
        rho = random_state(5, "mixed", seed=3)
        first = spectral_decompose(rho)
        assert spectral_decompose(rho) is first
        assert spectral_decompose(rho) is first

    def test_arrays_are_read_only(self):
        spec = spectral_decompose(random_state(4, "mixed", seed=1))
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            spec.eigenvectors[0, 0] = 0.0
        with pytest.raises(ValueError):
            spec.eigenvalues.sort()

    def test_each_state_keeps_its_own_spectrum(self):
        mat = random_state(3, "mixed", seed=2).matrix
        a, b = DensityMatrix(mat), DensityMatrix(mat)
        assert spectral_decompose(a) is not spectral_decompose(b)
        assert np.array_equal(spectral_decompose(a).eigenvalues, spectral_decompose(b).eigenvalues)

    def test_memo_matches_a_fresh_decomposition(self):
        rho = random_state(6, "mixed", seed=4)
        spec = spectral_decompose(rho)
        w, v = np.linalg.eigh(rho.matrix)
        order = np.argsort(w)[::-1]
        assert np.array_equal(spec.eigenvalues, w[order])
        assert np.array_equal(spec.eigenvectors, v[:, order])


class TestPartialTrace:
    def test_bell_marginal(self, bell_state):
        red = partial_trace(bell_state.projector(), keep=[0])
        assert np.allclose(red.matrix, np.eye(2) / 2, rtol=0, atol=1e-14)

    def test_product_state_marginal(self):
        rng = np.random.default_rng(5)
        rho_a = DensityMatrix(random_density(2, rng))
        rho_b = DensityMatrix(random_density(3, rng))
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
        red = partial_trace(joint, keep=[0])
        assert np.max(np.abs(red.matrix - rho_a.matrix)) < 1e-12

    def test_ghz_pair(self, ghz3):
        red = partial_trace(ghz3.projector(), keep=[0, 1])
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(red.matrix, want, rtol=0, atol=1e-14)

    def test_requires_dims(self):
        rho = random_state(4, "mixed", seed=0)
        with pytest.raises(UsageError):
            partial_trace(rho, keep=[0])

    @pytest.mark.parametrize("keep, message", [([], "non-empty"), ([2], "out of range"),
                                               ([-1, 0], "out of range")])
    def test_bad_keep_rejected(self, bell_state, keep, message):
        with pytest.raises(UsageError, match=message):
            partial_trace(bell_state.projector(), keep=keep)

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(7)
        rho1 = DensityMatrix(random_density(8, rng), (2, 2, 2))
        rho2 = DensityMatrix(random_density(8, rng), (2, 2, 2))
        p = 0.3
        mix = DensityMatrix(p * rho1.matrix + (1 - p) * rho2.matrix, (2, 2, 2))
        left = partial_trace(mix, keep=[1]).matrix
        right = p * partial_trace(rho1, keep=[1]).matrix \
            + (1 - p) * partial_trace(rho2, keep=[1]).matrix
        assert np.max(np.abs(left - right)) < 1e-12
        assert abs(np.trace(left) - 1.0) < 1e-12


class TestSchmidt:
    def test_bell(self, bell_state):
        data = schmidt_decompose(bell_state, [0])
        assert np.allclose(data.coefficients, [0.5, 0.5], rtol=0, atol=1e-12)

    def test_product(self):
        psi = PureState(np.eye(4)[0], (2, 2))
        assert np.allclose(schmidt_decompose(psi, [0]).coefficients, [1.0, 0.0],
                           rtol=0, atol=1e-12)

    def test_schmidt_form_input(self):
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(0.9), math.sqrt(0.1)
        data = schmidt_decompose(PureState(v, (2, 2)), [0])
        assert np.allclose(data.coefficients, [0.9, 0.1], rtol=0, atol=1e-12)

    def test_invalid_cut(self, bell_state):
        with pytest.raises(UsageError):
            schmidt_decompose(bell_state, [0, 1])
        with pytest.raises(UsageError):
            schmidt_decompose(bell_state, [])

    def test_cut_requires_dims(self):
        with pytest.raises(UsageError, match="requires subsystem_dims"):
            schmidt_decompose(random_state(4, "pure", seed=0), [0])

    def test_matches_reduced_eigenvalues(self):
        for seed in range(5):
            psi = random_state(12, "pure", seed=seed, subsystem_dims=(2, 3, 2))
            lam = schmidt_decompose(psi, [1]).coefficients
            red = partial_trace(psi.projector(), keep=[1])
            ref = np.sort(np.linalg.eigvalsh(red.matrix))[::-1]
            assert np.max(np.abs(lam - ref)) < 1e-10


class TestRandomState:
    def test_pure_normalized(self):
        psi = random_state(2, "pure", seed=11)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_mixed_invariants(self):
        random_state(4, "mixed", seed=11)  # constructor validates

    def test_deterministic(self):
        a = random_state(6, "mixed", seed=123)
        b = random_state(6, "mixed", seed=123)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_state(6, "pure", seed=123)
        d = random_state(6, "pure", seed=123)
        assert np.array_equal(c.amplitudes, d.amplitudes)

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            random_state(2, "thermal", seed=0)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_bad_dimension(self, kind):
        with pytest.raises(UsageError, match="dimension must be >= 1"):
            random_state(0, kind)


# each entry point that takes a count: a call on one value, and that count's minimum
COUNT_ARGUMENTS = {
    "ChainSpec.n": (lambda k: ChainSpec(k, 0.5), 2),
    "RoofConfig.cardinality": (lambda k: RoofConfig(cardinality=k), 1),
    "RoofConfig.restarts": (lambda k: RoofConfig(restarts=k), 1),
    "RoofConfig.seed": (lambda k: RoofConfig(seed=k), 0),
    "random_state": (random_state, 1),
    "computational_basis": (computational_basis, 1),
    "fourier_basis": (fourier_basis, 1),
    "PureState.subsystem_dims": (lambda k: PureState(np.eye(4)[0], (k,)), 1),
}


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_are_integers_at_least_their_minimum(name):
    call, minimum = COUNT_ARGUMENTS[name]
    for value in (4.0, True, "4"):
        with pytest.raises(UsageError, match="must be an integer, got"):
            call(value)
    with pytest.raises(UsageError, match=f"must be >= {minimum}, got {minimum - 2}"):
        call(minimum - 2)
    for value in (4, np.int64(4), np.int32(4), np.uint8(4)):
        call(value)
