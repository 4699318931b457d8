import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from oracles import (SX, SY, SZ, entanglement_value_of_concurrence, random_density,
                     wootters_concurrence)
from statetexture import (DensityMatrix, PureState, RoofConfig, UsageError,
                          convex_roof, pure_state_monotone, random_state)

FAST = RoofConfig(cardinality=5, restarts=2, tolerance=1e-7, seed=7)


def werner(p):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    mat = p * np.outer(phi, phi) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(mat.astype(complex), (2, 2))


class TestExamples:
    def test_separable_diagonal_mixture(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[3, 3] = 0.5
        rho = DensityMatrix(mat, (2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        assert res.value < 1e-6

    def test_pure_bell(self, bell_state):
        res = convex_roof(bell_state.projector(), "entanglement_bipartite",
                          RoofConfig(cardinality=2, restarts=1, seed=1))
        assert abs(res.value - 0.5) < 1e-8

    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_werner_matches_concurrence_oracle(self, p):
        rho = werner(p)
        oracle = entanglement_value_of_concurrence(wootters_concurrence(rho.matrix))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        assert res.value >= oracle - 1e-9
        assert res.value <= oracle + 1e-3


class TestResultContract:
    def test_decomposition_reconstructs_state(self):
        rho = random_state(4, "mixed", seed=21, subsystem_dims=(2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        probs = [p for p, _ in res.decomposition]
        assert abs(sum(probs) - 1.0) < 1e-10
        rebuilt = sum(p * np.outer(s.amplitudes, s.amplitudes.conj())
                      for p, s in res.decomposition)
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-8

    def test_value_consistent_with_decomposition(self):
        rho = random_state(4, "mixed", seed=22, subsystem_dims=(2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        resum = sum(p * pure_state_monotone(s, "entanglement_bipartite").value
                    for p, s in res.decomposition)
        assert abs(res.value - resum) < 1e-10

    def test_pure_state_equals_pure_monotone(self):
        for seed in range(3):
            psi = random_state(4, "pure", seed=seed, subsystem_dims=(2, 2))
            res = convex_roof(psi.projector(), "entanglement_bipartite",
                              RoofConfig(cardinality=3, restarts=1, seed=0))
            want = pure_state_monotone(psi, "entanglement_bipartite").value
            assert abs(res.value - want) < 1e-8

    @pytest.mark.parametrize("theory,d,dims", [
        ("coherence", 3, None),
        ("nonstabilizerness", 2, None),
        ("entanglement_bipartite", 6, (2, 3)),
        ("gme", 8, (2, 2, 2)),
        ("gme", 16, (2, 2, 2, 2)),
    ])
    def test_rank_one_roof_is_the_closed_form(self, theory, d, dims):
        for seed in range(3):
            psi = random_state(d, "pure", seed=seed, subsystem_dims=dims)
            res = convex_roof(psi.projector(), theory, RoofConfig(restarts=1))
            assert abs(res.value - pure_state_monotone(psi, theory).value) < 1e-12

    def test_more_restarts_never_worse(self):
        rho = random_state(4, "mixed", seed=23, subsystem_dims=(2, 2))
        values = [
            convex_roof(rho, "entanglement_bipartite",
                        RoofConfig(cardinality=5, restarts=r, seed=5)).value
            for r in (1, 2, 4)
        ]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_gap_to_oracle_populated_for_two_qubits(self):
        res = convex_roof(werner(0.8), "entanglement_bipartite", FAST)
        assert res.gap_to_oracle is not None
        assert -1e-9 <= res.gap_to_oracle <= 1e-3

    def test_converged_flag(self):
        res = convex_roof(werner(0.6), "entanglement_bipartite", FAST)
        assert res.converged
        starved = convex_roof(werner(0.6), "entanglement_bipartite",
                              RoofConfig(cardinality=5, restarts=1, seed=5,
                                         max_iterations=1))
        assert not starved.converged

    @pytest.mark.parametrize("fields", [
        {"restarts": 0}, {"restarts": -3}, {"cardinality": 0},
        {"tolerance": -1.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
        {"max_iterations": 0}, {"seed": 1.5}, {"seed": "3"},
    ])
    def test_config_fields_validated(self, fields):
        with pytest.raises(UsageError):
            RoofConfig(**fields)

    def test_config_accepts_numpy_integers(self):
        assert RoofConfig(seed=np.int64(3), restarts=np.int64(2)).seed == 3

    def test_cardinality_below_rank_rejected(self):
        rho = random_state(4, "mixed", seed=24, subsystem_dims=(2, 2))
        with pytest.raises(UsageError):
            convex_roof(rho, "entanglement_bipartite",
                        RoofConfig(cardinality=2, restarts=1))

    def test_unknown_theory_rejected(self):
        rho = random_state(4, "mixed", seed=25, subsystem_dims=(2, 2))
        with pytest.raises(UsageError):
            convex_roof(rho, "negativity", FAST)


class TestOtherTheories:
    def test_incoherent_mixture_has_zero_coherence_roof(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        res = convex_roof(rho, "coherence", RoofConfig(cardinality=4, restarts=2, seed=2))
        assert res.value < 1e-6

    def test_coherent_pure_state_roof(self):
        psi = PureState(np.ones(2) / math.sqrt(2))
        res = convex_roof(psi.projector(), "coherence",
                          RoofConfig(cardinality=2, restarts=1, seed=2))
        assert abs(res.value - 0.5) < 1e-8

    def test_stabilizer_mixture_has_zero_magic_roof(self):
        plus = np.ones(2) / math.sqrt(2)
        mat = 0.5 * np.outer(plus, plus) + 0.5 * np.diag([1.0, 0.0])
        rho = DensityMatrix(mat.astype(complex))
        res = convex_roof(rho, "nonstabilizerness",
                          RoofConfig(cardinality=4, restarts=4, seed=3))
        assert res.value < 1e-6

    def test_gme_roof_on_pure_ghz(self, ghz3):
        res = convex_roof(ghz3.projector(), "gme",
                          RoofConfig(cardinality=2, restarts=1, seed=4))
        assert abs(res.value - 0.5) < 1e-8

    def test_entanglement_requires_dims(self):
        rho = random_state(4, "mixed", seed=26)
        with pytest.raises(UsageError):
            convex_roof(rho, "entanglement_bipartite", FAST)


def octahedron_state(seed):
    """A qubit state strictly inside the stabilizer octahedron |x|+|y|+|z| < 1,
    whose non-stabilizerness roof is exactly 0."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, 3)
    r *= rng.uniform(0.2, 0.9) / np.sum(np.abs(r))
    return DensityMatrix(0.5 * (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ))


class TestOctahedron:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_stabilizer_mixture_reaches_zero(self, seed):
        res = convex_roof(octahedron_state(seed), "nonstabilizerness",
                          RoofConfig(cardinality=5, restarts=8, tolerance=1e-7, seed=11))
        assert -1e-12 <= res.value <= 1e-6


def pure_entanglement(amplitudes):
    """1 - lambda_1 of a two-qubit pure state from its concurrence 2|ad - bc|."""
    a, b, c, d = amplitudes
    return entanglement_value_of_concurrence(min(1.0, 2.0 * abs(a * d - b * c)))


class TestProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(strat.integers(0, 2 ** 32 - 1))
    def test_two_qubit_roof_bounds(self, seed):
        mat = random_density(4, np.random.default_rng(seed))
        rho = DensityMatrix(mat, (2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        oracle = entanglement_value_of_concurrence(wootters_concurrence(mat))
        assert oracle - 1e-9 <= res.value <= oracle + 1e-3
        rebuilt = sum(p * np.outer(s.amplitudes, s.amplitudes.conj())
                      for p, s in res.decomposition)
        assert np.max(np.abs(rebuilt - mat)) < 1e-10
        mu, vecs = np.linalg.eigh(mat)
        eigen_average = sum(p * pure_entanglement(v) for p, v in zip(mu, vecs.T) if p > 0)
        assert res.value <= eigen_average + 1e-9
