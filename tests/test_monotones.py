import itertools
import math

import numpy as np
import pytest

from oracles import SX, SY, SZ, haar_unitary, wootters_concurrence
from statetexture import (PureState, ResourceLimitError,
                          UsageError, coherence_monotone, concurrence_two_qubit,
                          entanglement_monotone, fourier_basis, gme_monotone,
                          nonstabilizerness_monotone, random_state,
                          sampled_local_texture_bound,
                          single_qubit_clifford_group, texture_in_basis)

STABILIZER_QUBITS = [
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]) / math.sqrt(2),
    np.array([1.0, -1.0]) / math.sqrt(2),
    np.array([1.0, 1.0j]) / math.sqrt(2),
    np.array([1.0, -1.0j]) / math.sqrt(2),
]


def clifford_magic_brute_force(psi: PureState) -> float:
    """Minimum texture over the 24 Clifford rotations, measured in the
    Fourier basis (whose texture-less state is |0>)."""
    basis = fourier_basis(2)
    best = math.inf
    for u in single_qubit_clifford_group():
        rotated = PureState(u @ psi.amplitudes)
        best = min(best, texture_in_basis(rotated, basis).texture)
    return best


class TestCoherence:
    def test_basis_state_is_free(self):
        assert coherence_monotone(PureState([1.0, 0.0])).value == 0.0

    def test_plus_state(self):
        res = coherence_monotone(PureState(np.ones(2) / math.sqrt(2)))
        assert abs(res.value - 0.5) < 1e-12
        assert res.witness["index"] == 0  # smallest index on ties

    def test_uniform_qutrit(self):
        res = coherence_monotone(PureState(np.ones(3) / math.sqrt(3)))
        assert abs(res.value - 2.0 / 3.0) < 1e-12

    def test_all_computational_states_free(self):
        for d in (2, 3, 5):
            for k in range(d):
                assert coherence_monotone(PureState(np.eye(d)[:, k])).value == 0.0

    def test_range(self):
        for seed in range(30):
            d = 2 + seed % 5
            val = coherence_monotone(random_state(d, "pure", seed=seed)).value
            assert -1e-15 <= val <= 1.0 - 1.0 / d + 1e-12


class TestNonstabilizerness:
    def test_stabilizer_states_free(self):
        for amp in STABILIZER_QUBITS:
            assert nonstabilizerness_monotone(PureState(amp)).value < 1e-12

    def test_t_state_closed_form(self):
        t = PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2))
        res = nonstabilizerness_monotone(t)
        assert abs(res.value - 0.5 * (1 - 1 / math.sqrt(2))) < 1e-12
        assert res.witness["axis"] == "x"

    def test_matches_clifford_brute_force(self):
        for seed in range(50):
            psi = random_state(2, "pure", seed=seed)
            closed = nonstabilizerness_monotone(psi).value
            brute = clifford_magic_brute_force(psi)
            assert abs(closed - brute) < 1e-10

    def test_witness_magnetization_is_pauli_expectation(self):
        paulis = {"x": SX, "y": SY, "z": SZ}
        for seed in range(30):
            psi = random_state(2, "pure", seed=seed)
            res = nonstabilizerness_monotone(psi)
            amp = psi.amplitudes
            want = np.vdot(amp, paulis[res.witness["axis"]] @ amp).real
            assert abs(res.witness["magnetization"] - want) < 1e-12
            assert all(abs(np.vdot(amp, s @ amp).real) <= abs(want) + 1e-12
                       for s in paulis.values())

    def test_dimension_guard(self):
        with pytest.raises(UsageError):
            nonstabilizerness_monotone(random_state(4, "pure", seed=0))

    def test_clifford_group_properties(self):
        group = single_qubit_clifford_group()
        assert len(group) == 24
        for u in group:
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestEntanglement:
    def test_product_state(self):
        psi = PureState(np.kron([1.0, 0.0], [1.0, 0.0]), (2, 2))
        assert entanglement_monotone(psi, [0]).value < 1e-12

    def test_bell(self, bell_state):
        assert abs(entanglement_monotone(bell_state, [0]).value - 0.5) < 1e-12

    def test_partially_entangled(self):
        v = np.zeros(4)
        v[0], v[3] = math.sqrt(0.9), math.sqrt(0.1)
        res = entanglement_monotone(PureState(v, (2, 2)), [0])
        assert abs(res.value - 0.1) < 1e-12
        assert abs(res.witness["largest_schmidt"] - 0.9) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            psi = random_state(12, "pure", seed=seed, subsystem_dims=(3, 4))
            base = entanglement_monotone(psi, [0]).value
            u = np.kron(haar_unitary(3, rng), haar_unitary(4, rng))
            rotated = PureState(u @ psi.amplitudes, (3, 4))
            assert abs(entanglement_monotone(rotated, [0]).value - base) < 1e-10

    def test_range_bound(self):
        for seed in range(20):
            psi = random_state(8, "pure", seed=seed, subsystem_dims=(2, 4))
            val = entanglement_monotone(psi, [0]).value
            assert -1e-15 <= val <= 0.5 + 1e-12  # 1 - 1/min(dA, dB)

    def test_bad_cut(self, bell_state):
        with pytest.raises(UsageError):
            entanglement_monotone(bell_state, [0, 1])


class TestGme:
    def test_ghz(self, ghz3):
        res = gme_monotone(ghz3)
        assert abs(res.value - 0.5) < 1e-12

    def test_w_state(self, w3):
        assert abs(gme_monotone(w3).value - 1.0 / 3.0) < 1e-10

    def test_product_times_bell_is_free(self, bell_state):
        psi = PureState(np.kron([1.0, 0.0], bell_state.amplitudes), (2, 2, 2))
        assert gme_monotone(psi).value < 1e-12

    def test_dominated_by_each_cut(self):
        for seed in range(10):
            psi = random_state(16, "pure", seed=seed, subsystem_dims=(2, 2, 2, 2))
            gme = gme_monotone(psi).value
            for r in range(1, 4):
                for cut in itertools.combinations(range(4), r):
                    if 0 not in cut:
                        continue
                    assert gme <= entanglement_monotone(psi, cut).value + 1e-10

    def test_witness_cut_attains_value(self):
        for seed in range(10):
            psi = random_state(16, "pure", seed=seed, subsystem_dims=(2, 2, 2, 2))
            res = gme_monotone(psi)
            cut = entanglement_monotone(psi, res.witness["cut"][0])
            assert abs(cut.value - res.value) < 1e-12
            assert abs(res.witness["largest_schmidt"] - (1.0 - res.value)) < 1e-12

    def test_brute_force_bipartition_count(self, ghz3):
        res = gme_monotone(ghz3)
        side_a, side_b = res.witness["cut"]
        assert set(side_a) | set(side_b) == {0, 1, 2}

    def test_local_unitary_invariance(self, w3):
        rng = np.random.default_rng(5)
        base = gme_monotone(w3).value
        u = np.kron(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)),
                    haar_unitary(2, rng))
        rotated = PureState(u @ w3.amplitudes, (2, 2, 2))
        assert abs(gme_monotone(rotated).value - base) < 1e-10

    def test_party_limit(self):
        n = 13
        amp = np.zeros(2 ** n)
        amp[0] = 1.0
        with pytest.raises(ResourceLimitError):
            gme_monotone(PureState(amp, (2,) * n))


class TestSampledLocalTextureBound:
    def test_product_state_exact_zero_with_witness(self):
        psi = PureState(np.kron([1.0, 0.0], [0.0, 1.0]), (2, 2))
        assert sampled_local_texture_bound(psi, [0], samples=8, seed=1) < 1e-10

    def test_bell_lower_bound(self, bell_state):
        val = sampled_local_texture_bound(bell_state, [0], samples=16, seed=2)
        assert val >= 0.5 - 1e-10

    def test_upper_bounds_monotone_and_tight(self):
        for seed in range(10):
            psi = random_state(6, "pure", seed=seed, subsystem_dims=(2, 3))
            exact = entanglement_monotone(psi, [0]).value
            bound = sampled_local_texture_bound(psi, [0], samples=10, seed=seed)
            assert bound >= exact - 1e-10
            assert bound <= exact + 1e-10  # witness injection achieves equality

    def test_without_witness_still_bounds(self):
        psi = random_state(4, "pure", seed=3, subsystem_dims=(2, 2))
        exact = entanglement_monotone(psi, [0]).value
        bound = sampled_local_texture_bound(psi, [0], samples=40, seed=4,
                                            include_witness=False)
        assert bound >= exact - 1e-10


class TestConcurrence:
    def test_matches_independent_oracle(self):
        for seed in range(20):
            rho = random_state(4, "mixed", seed=seed, subsystem_dims=(2, 2))
            ours = concurrence_two_qubit(rho)
            ref = wootters_concurrence(rho.matrix)
            assert abs(ours - ref) < 1e-10

    def test_bell_and_product(self, bell_state):
        assert abs(concurrence_two_qubit(bell_state) - 1.0) < 1e-10
        prod = PureState(np.kron([1.0, 0.0], [1.0, 0.0]), (2, 2))
        assert concurrence_two_qubit(prod) < 1e-10
