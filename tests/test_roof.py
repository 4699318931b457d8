import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from oracles import (SX, SY, SZ, entanglement_roof_of_concurrence, qubit_coherence_roof,
                     random_density, wootters_concurrence)
from statetexture import (DensityMatrix, PureState, ResourceLimitError, RoofConfig, UsageError,
                          concurrence_two_qubit, convex_roof, pure_state_monotone,
                          random_state, roof, spectral_decompose)
from statetexture.monotones import free_state_oracle

FAST = RoofConfig(cardinality=5, restarts=2, tolerance=1e-7, seed=7)


@pytest.fixture
def descents(monkeypatch):
    """Every call of ``roof._descend``, one restart each, as its isometry."""
    calls = []

    def counting(iso, *args, _original=roof._descend):
        calls.append(iso)
        return _original(iso, *args)

    monkeypatch.setattr(roof, "_descend", counting)
    return calls


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
        assert abs(res.value) < 1e-6

    def test_pure_bell(self, bell_state):
        res = convex_roof(bell_state.projector(), "entanglement_bipartite",
                          RoofConfig(cardinality=2, restarts=1, seed=1))
        assert abs(res.value - 0.5) < 1e-8

    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_werner_matches_concurrence_oracle(self, p):
        rho = werner(p)
        oracle = entanglement_roof_of_concurrence(wootters_concurrence(rho.matrix))
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
            want = pure_state_monotone(psi, theory).value
            # a pure state is read as rank one, with no projector formed, and
            # is its own one branch
            assert convex_roof(psi, theory, RoofConfig(restarts=1)).value == want
            # the projector's eigenvector carries eigh's rounding: over 200
            # seeds per case the value strays from the monotone by 1.4e-15 at most
            res = convex_roof(psi.projector(), theory, RoofConfig(restarts=1))
            assert abs(res.value - want) < 1e-14

    def test_more_restarts_never_worse(self):
        rho = random_state(4, "mixed", seed=23, subsystem_dims=(2, 2))
        values = [
            convex_roof(rho, "entanglement_bipartite",
                        RoofConfig(cardinality=5, restarts=r, seed=5)).value
            for r in (1, 2, 4)
        ]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_lower_bound_is_the_concurrence_roof_for_two_qubits(self):
        rho = werner(0.8)
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        gap = res.value - entanglement_roof_of_concurrence(concurrence_two_qubit(rho))
        assert -1e-9 <= gap <= 1e-3
        assert -1e-9 <= res.value - res.lower_bound <= 1e-3

    def test_converged_flag(self, monkeypatch):
        rho = rank_two_three_qubits(6)
        res = convex_roof(rho, "gme", FAST)
        assert res.converged
        monkeypatch.setattr(roof, "MAX_ITERATIONS", 1)
        starved = convex_roof(rho, "gme", RoofConfig(cardinality=5, restarts=1, seed=5))
        assert not starved.converged

    @pytest.mark.parametrize("fields", [
        {"restarts": 0}, {"restarts": -3}, {"cardinality": 0},
        {"tolerance": -1.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
        {"seed": 1.5}, {"seed": "3"}, {"seed": -1},
    ])
    def test_config_fields_validated(self, fields):
        with pytest.raises(UsageError):
            RoofConfig(**fields)

    def test_huge_tolerance_stops_at_once(self, monkeypatch):
        # tolerance ** 2 once overflowed; tolerance * tolerance is inf, so
        # the first gradient test stops every restart
        rho = rank_two_three_qubits(6)
        config = RoofConfig(cardinality=5, restarts=1, seed=5, tolerance=1e308)
        res = convex_roof(rho, "gme", config)
        monkeypatch.setattr(roof, "MAX_ITERATIONS", 1)
        start = convex_roof(rho, "gme", config)
        assert res.converged and res.value == start.value

    def test_config_accepts_numpy_integers(self):
        assert RoofConfig(seed=np.int64(3), restarts=np.int64(2)).seed == 3

    def test_cardinality_below_rank_rejected(self):
        rho = random_state(4, "mixed", seed=24, subsystem_dims=(2, 2))
        with pytest.raises(UsageError):
            convex_roof(rho, "entanglement_bipartite",
                        RoofConfig(cardinality=2, restarts=1))

    def test_cardinality_cap_checked_before_allocation(self, monkeypatch):
        # cardinality 10**8 once asked np.eye(m, r) for gigabytes and ended in
        # an _ArrayMemoryError; the cap is 2 d r (32 for a rank-2 three-qubit state)
        class Allocated(Exception):
            pass

        def eye(*args, **kwargs):
            raise Allocated

        rho = rank_two_three_qubits(6)
        monkeypatch.setattr(roof.np, "eye", eye)
        for m in (33, 10 ** 8):
            with pytest.raises(UsageError, match="exceeds"):
                convex_roof(rho, "gme", RoofConfig(cardinality=m, restarts=1))
        with pytest.raises(Allocated):
            convex_roof(rho, "gme", RoofConfig(cardinality=32, restarts=1))

    def test_branch_entries_checked_before_allocation(self, monkeypatch):
        # a full-rank d = 256 state's default cardinality r^2 = 65536 is
        # within 2 d r but asks for 2^24 branch entries, 256 MiB for W alone
        class Allocated(Exception):
            pass

        def eye(*args, **kwargs):
            raise Allocated

        rho = random_state(256, "mixed", seed=3)
        monkeypatch.setattr(roof.np, "eye", eye)
        most = roof.MAX_BRANCH_ENTRIES // rho.dim
        for config in (RoofConfig(restarts=1), RoofConfig(cardinality=most + 1, restarts=1)):
            with pytest.raises(ResourceLimitError, match="exceeds the limit"):
                convex_roof(rho, "coherence", config)
        with pytest.raises(Allocated):
            convex_roof(rho, "coherence", RoofConfig(cardinality=most, restarts=1))

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

    @pytest.mark.parametrize("theory", ["entanglement_bipartite", "gme", "coherence"])
    def test_product_projector_roof_is_zero(self, theory):
        # the optimizer's weighted sum can round below 0 (-4.4e-16 here)
        res = convex_roof(PureState(np.eye(4)[0], (2, 2)).projector(), theory)
        assert res.value == 0.0
        if theory == "entanglement_bipartite":
            assert res.lower_bound == 0.0

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
    return entanglement_roof_of_concurrence(min(1.0, 2.0 * abs(a * d - b * c)))


class TestProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(strat.integers(0, 2 ** 32 - 1))
    def test_two_qubit_roof_bounds(self, seed):
        mat = random_density(4, np.random.default_rng(seed))
        rho = DensityMatrix(mat, (2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        oracle = entanglement_roof_of_concurrence(wootters_concurrence(mat))
        assert oracle - 1e-9 <= res.value <= oracle + 1e-3
        rebuilt = sum(p * np.outer(s.amplitudes, s.amplitudes.conj())
                      for p, s in res.decomposition)
        assert np.max(np.abs(rebuilt - mat)) < 1e-10
        mu, vecs = np.linalg.eigh(mat)
        eigen_average = sum(p * pure_entanglement(v) for p, v in zip(mu, vecs.T) if p > 0)
        assert res.value <= eigen_average + 1e-9


def low_rank(seed, rank, dims):
    """g g^+ / tr, g a d x ``rank`` complex Ginibre matrix, on subsystems ``dims``."""
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(0.5 * (mat + mat.conj().T), dims)


def rank_two_three_qubits(seed):
    return low_rank(seed, 2, (2, 2, 2))


DESCENT_CASES = {
    "entanglement_bipartite": lambda: random_state(4, "mixed", seed=5000, subsystem_dims=(2, 2)),
    "coherence": lambda: random_state(3, "mixed", seed=1),
    "nonstabilizerness": lambda: random_state(2, "mixed", seed=0),
    "gme": lambda: rank_two_three_qubits(6),
}


def descent_starts(rho, theory, m=5):
    """The roof's branch basis and oracle for ``rho``, and two starting
    isometries: restart 0's and a seeded random one."""
    spec = spectral_decompose(rho)
    keep = spec.eigenvalues > roof.RANK_CUTOFF
    mu = spec.eigenvalues[keep] / spec.eigenvalues[keep].sum()
    base = (spec.eigenvectors[:, keep] * np.sqrt(mu)).T
    nearest, _ = free_state_oracle(theory, rho.subsystem_dims or (rho.dim,))
    r = mu.size
    rng = np.random.default_rng(3)
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    return base, nearest, [np.eye(m, r, dtype=complex), np.linalg.qr(g)[0]]


class TestDescentContract:
    @pytest.mark.parametrize("theory", DESCENT_CASES)
    def test_value_never_rises_with_more_iterations(self, theory, monkeypatch):
        base, nearest, starts = descent_starts(DESCENT_CASES[theory](), theory)
        config = RoofConfig(tolerance=1e-7)

        def capped(iso, k):
            monkeypatch.setattr(roof, "MAX_ITERATIONS", k)
            return roof._descend(iso, base, nearest, config)[0]

        for iso in starts:
            start = 1.0 - float(nearest(iso @ base)[0].sum())
            values = [capped(iso, k) for k in range(1, 41)]
            assert values[0] <= start
            assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theory", DESCENT_CASES)
    def test_repeated_calls_are_bitwise_equal(self, theory):
        rho = DESCENT_CASES[theory]()
        base, nearest, starts = descent_starts(rho, theory)
        for iso in starts:
            first, again = (roof._descend(iso, base, nearest, RoofConfig(tolerance=1e-7))
                            for _ in range(2))
            assert first[0] == again[0] and first[2] == again[2]
            assert np.array_equal(first[1], again[1])
        first, again = (convex_roof(rho, theory, FAST) for _ in range(2))
        assert first.value == again.value
        assert [p for p, _ in first.decomposition] == [p for p, _ in again.decomposition]
        assert all(np.array_equal(a.amplitudes, b.amplitudes)
                   for (_, a), (_, b) in zip(first.decomposition, again.decomposition))


def rebuilt(res):
    return sum(p * np.outer(s.amplitudes, s.amplitudes.conj()) for p, s in res.decomposition)


# the value and the lower bound are summed along different routes, so the
# bound may exceed the value by rounding
ROUNDING = 1e-14


def ginibre(d, seed, dims=None):
    return DensityMatrix(random_density(d, np.random.default_rng(seed)), dims)


EXACT_CASES = {
    "werner-0": (lambda: werner(0.0), "entanglement_bipartite"),
    "werner-0.2": (lambda: werner(0.2), "entanglement_bipartite"),
    "werner-1/3": (lambda: werner(1.0 / 3.0), "entanglement_bipartite"),
    "werner-0.6": (lambda: werner(0.6), "entanglement_bipartite"),
    "ginibre-2x2": (lambda: ginibre(4, 5000, (2, 2)), "entanglement_bipartite"),
    "rank-2-2x2": (lambda: low_rank(1, 2, (2, 2)), "entanglement_bipartite"),
    "rank-3-2x2": (lambda: low_rank(2, 3, (2, 2)), "entanglement_bipartite"),
    "coherence-0": (lambda: ginibre(2, 0), "coherence"),
    "coherence-1": (lambda: ginibre(2, 1), "coherence"),
    "magic-ginibre": (lambda: ginibre(2, 0), "nonstabilizerness"),
    "octahedron-2": (lambda: octahedron_state(2), "nonstabilizerness"),
    "octahedron-7": (lambda: octahedron_state(7), "nonstabilizerness"),
}

# two-qubit states of rank 2, 3 and 4, and Werner states at and above C = 0
WOOTTERS_STATES = {
    **{f"werner-{p}": (lambda p=p: werner(p)) for p in (0.2, 0.34, 0.6, 0.8)},
    **{f"rank-{rank}-{seed}": (lambda rank=rank, seed=seed: low_rank(seed, rank, (2, 2)))
       for rank in (2, 3, 4) for seed in range(6)},
}


class TestExactPaths:
    @pytest.mark.parametrize("case", WOOTTERS_STATES)
    def test_every_wootters_branch_carries_the_concurrence(self, case):
        rho = WOOTTERS_STATES[case]()
        conc = concurrence_two_qubit(rho)
        assert (conc == 0.0) == (case == "werner-0.2")
        res = convex_roof(rho, "entanglement_bipartite")
        assert len(res.decomposition) == 4
        for _, branch in res.decomposition:
            assert abs(concurrence_two_qubit(branch) - conc) <= 1e-12

    @pytest.mark.parametrize("config", [FAST, RoofConfig()], ids=["fast", "default"])
    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.6, 1.0])
    def test_werner_is_the_wootters_roof(self, p, config):
        # Werner's concurrence in closed form: the spin-flip spectrum's square
        # roots lose 1e-8 of the roof at p = 1
        oracle = entanglement_roof_of_concurrence(max(0.0, 1.5 * p - 0.5))
        res = convex_roof(werner(p), "entanglement_bipartite", config)
        assert abs(res.value - oracle) <= 1e-12

    @pytest.mark.parametrize("seed", [5000, 5001, 5002])
    def test_full_rank_two_qubits_are_the_wootters_roof(self, seed):
        rho = ginibre(4, seed, (2, 2))
        res = convex_roof(rho, "entanglement_bipartite", FAST)
        oracle = entanglement_roof_of_concurrence(wootters_concurrence(rho.matrix))
        assert abs(res.value - oracle) <= 1e-12
        assert abs(res.value - res.lower_bound) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_qubit_coherence_is_the_closed_form(self, seed):
        rho = ginibre(2, seed)
        res = convex_roof(rho, "coherence", FAST)
        assert abs(res.value - qubit_coherence_roof(rho.matrix)) <= 1e-12

    @pytest.mark.parametrize("config", [FAST, RoofConfig()], ids=["fast", "default"])
    @pytest.mark.parametrize("seed", [2, 7])
    def test_octahedron_roof_is_zero(self, seed, config):
        res = convex_roof(octahedron_state(seed), "nonstabilizerness", config)
        assert 0.0 <= res.value <= 1e-12

    def test_ginibre_magic_qubit(self):
        # the descent at the benchmark's settings ends at 1.708e-2 here, a
        # local minimum where every branch keeps one stabilizer axis
        res = convex_roof(ginibre(2, 0), "nonstabilizerness")
        assert abs(res.value - 1.462011e-3) <= 5e-10

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_result_contract(self, case, descents):
        state, theory = EXACT_CASES[case]
        rho = state()
        res = convex_roof(rho, theory, FAST)
        assert np.max(np.abs(rebuilt(res) - rho.matrix)) <= 1e-10
        assert abs(sum(p for p, _ in res.decomposition) - 1.0) <= 1e-12
        resum = sum(p * pure_state_monotone(s, theory).value for p, s in res.decomposition)
        assert abs(res.value - resum) <= 1e-12
        assert res.lower_bound - ROUNDING <= res.value <= res.lower_bound + roof.EXACT_GAP
        assert res.converged and descents == []

    @pytest.mark.parametrize("theory, amplitudes, dims", [
        ("entanglement_bipartite", [1, 0, 0, 1], (2, 2)),
        ("entanglement_bipartite", [1, 0, 0, 0, 1, 1], (2, 3)),
        ("gme", [1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2)),
        ("gme", [0, 1, 1, 0, 1, 0, 0, 0], (2, 2, 2)),
        ("coherence", [1, 1], None),
        ("coherence", [1, 1, 1], None),
        ("nonstabilizerness", [math.cos(math.pi / 8), math.sin(math.pi / 8)], None),
    ], ids=["bell", "2x3", "ghz", "w", "plus", "uniform-3", "h-axis"])
    def test_rank_one_is_its_own_branch(self, theory, amplitudes, dims, descents):
        # every decomposition of a pure state has its monotone as its value,
        # so no descent runs, at the default config too
        psi = PureState(np.array(amplitudes, dtype=complex) / np.linalg.norm(amplitudes), dims)
        want = pure_state_monotone(psi, theory).value
        for state, tol in ((psi, 0.0), (psi.projector(), 1e-15)):
            res = convex_roof(state, theory)
            assert abs(res.value - want) <= tol
            assert res.lower_bound == res.value
            assert descents == [] and res.converged
            [(p, branch)] = res.decomposition
            assert abs(p - 1.0) <= 1e-15
            assert abs(abs(np.vdot(branch.amplitudes, psi.amplitudes)) - 1.0) <= 1e-15
        # the config is still validated: the cardinality cap 2 d r holds
        with pytest.raises(UsageError, match="exceeds 2 d r"):
            convex_roof(psi, theory, RoofConfig(cardinality=2 * psi.dim + 1))

    @pytest.mark.parametrize("theory,state", [
        ("coherence", lambda: random_state(3, "mixed", seed=1)),
        ("entanglement_bipartite", lambda: ginibre(6, 1, (2, 3))),
        ("gme", lambda: rank_two_three_qubits(6)),
    ])
    def test_other_cases_descend(self, theory, state, descents):
        config = RoofConfig(cardinality=8, restarts=2, tolerance=1e-7, seed=7)
        res = convex_roof(state(), theory, config)
        assert res.lower_bound is None and len(descents) == 2

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(strat.integers(0, 2 ** 32 - 1),
           strat.sampled_from([("entanglement_bipartite", 2), ("entanglement_bipartite", 3),
                               ("entanglement_bipartite", 4), ("coherence", 2),
                               ("nonstabilizerness", 2)]))
    def test_bracket_and_descent_never_below(self, seed, case):
        theory, rank = case
        if theory == "entanglement_bipartite":
            rho = low_rank(seed, rank, (2, 2))
        else:
            rho = ginibre(2, seed)
        res = convex_roof(rho, theory)
        assert res.lower_bound - ROUNDING <= res.value <= res.lower_bound + roof.EXACT_GAP
        assert np.max(np.abs(rebuilt(res) - rho.matrix)) <= 1e-10
        base, nearest, starts = descent_starts(rho, theory, m=rank * rank)
        for iso in starts:
            assert roof._descend(iso, base, nearest, RoofConfig())[0] >= res.value - 1e-9
