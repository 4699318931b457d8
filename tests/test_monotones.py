import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from oracles import (SX, SY, SZ, entanglement_roof_of_concurrence, gme_product_oracle,
                     haar_unitary, single_qubit_cliffords, wootters_concurrence)
from statetexture import (DensityMatrix, OrthonormalBasis, PureState, ResourceLimitError,
                          UsageError, coherence_monotone, concurrence_two_qubit, convex_roof,
                          entanglement_monotone, fourier_basis, gme_monotone,
                          nonstabilizerness_monotone, pure_state_monotone, random_state,
                          texture_in_basis)
import statetexture.monotones as monotones
from statetexture.monotones import free_state_oracle
from statetexture.texture import _unitary_mapping_uniform_to

STABILIZER_QUBITS = [
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]) / math.sqrt(2),
    np.array([1.0, -1.0]) / math.sqrt(2),
    np.array([1.0, 1.0j]) / math.sqrt(2),
    np.array([1.0, -1.0j]) / math.sqrt(2),
]


CLIFFORDS = single_qubit_cliffords()


def clifford_magic_brute_force(psi: PureState) -> float:
    """Minimum texture over the 24 Clifford rotations, measured in the
    Fourier basis (whose texture-less state is |0>)."""
    basis = fourier_basis(2)
    best = math.inf
    for u in CLIFFORDS:
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(strat.integers(2, 6), strat.integers(2, 4), strat.integers(0, 2 ** 32 - 1))
    def test_not_increased_by_incoherent_operations_on_average(self, d, branches, seed):
        # strictly incoherent Kraus operators K_i = P_i D_i, a permutation
        # times a diagonal with sum_i |D_i|^2 = I: the branch average of the
        # monotone over the outcomes cannot exceed its value before
        rng = np.random.default_rng(seed)
        amp = haar_ket(d, rng)
        weights = rng.random((branches, d))
        phases = np.exp(2j * np.pi * rng.random((branches, d)))
        diagonals = np.sqrt(weights / weights.sum(axis=0)) * phases
        average = 0.0
        for diagonal in diagonals:
            branch = (diagonal * amp)[rng.permutation(d)]
            p = np.vdot(branch, branch).real
            average += p * coherence_monotone(PureState(branch / math.sqrt(p))).value
        assert average <= coherence_monotone(PureState(amp)).value + 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_raised_by_the_fourier_unitary(self, d):
        # negative control: the Fourier unitary is not incoherent, and takes
        # |0>, where the monotone is 0, to the uniform ket, where it is 1 - 1/d
        zero = np.eye(d)[:, 0]
        assert coherence_monotone(PureState(zero)).value == 0.0
        moved = coherence_monotone(PureState(fourier_basis(d).unitary @ zero)).value
        assert abs(moved - (1.0 - 1.0 / d)) < 1e-12


@pytest.mark.parametrize("theory,dims", [
    ("coherence", None), ("nonstabilizerness", None),
    ("entanglement_bipartite", (2, 2)), ("gme", (2, 2)),
])
def test_free_state_above_unit_norm_is_zero(theory, dims):
    # a norm of 1 + 4e-13 is within NORM_TOL, and its overlap 1 + 8e-13
    # with the free state is above 1; the witness stays within its bound of
    # 1, and the magnetization of |1> at -1
    witness = {"coherence": "probability", "nonstabilizerness": "magnetization"}.get(
        theory, "largest_schmidt")
    for at in (0, -1):
        amp = np.zeros(2 if dims is None else math.prod(dims))
        amp[at] = 1 + 4e-13
        result = pure_state_monotone(PureState(amp, dims), theory)
        assert result.value == 0.0
        assert result.witness[witness] == (-1.0 if witness == "magnetization" and at else 1.0)


class TestNonstabilizerness:
    def test_stabilizer_states_free(self):
        for amp in STABILIZER_QUBITS:
            assert abs(nonstabilizerness_monotone(PureState(amp)).value) < 1e-12

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
        # the oracle's group, closed from H and S, which the brute forces use
        group = CLIFFORDS
        assert len(group) == 24
        for u in group:
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

        def index(v):
            """The elements equal to ``v`` up to a global phase."""
            return [k for k, u in enumerate(group) if abs(abs(np.vdot(u, v)) - 2.0) < 1e-12]

        # 24 distinct elements closed under products, each permuting the six
        # stabilizer kets: the whole Clifford group modulo phase
        assert [index(u) for u in group] == [[k] for k in range(24)]
        for u, v in itertools.product(group, repeat=2):
            assert len(index(u @ v)) == 1
        for u in group:
            images = [[j for j, s in enumerate(STABILIZER_QUBITS)
                       if abs(np.vdot(s, u @ ket)) > 1 - 1e-12] for ket in STABILIZER_QUBITS]
            assert sorted(images) == [[j] for j in range(6)]


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

    def test_three_parties_need_a_cut(self, ghz3):
        with pytest.raises(UsageError, match="explicit cut is required"):
            pure_state_monotone(ghz3, "entanglement_bipartite")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(strat.integers(2, 4), strat.integers(2, 4), strat.integers(2, 4),
           strat.integers(0, 1), strat.integers(0, 2 ** 32 - 1))
    def test_not_increased_by_local_measurement_on_average(self, d_a, d_b, branches, side,
                                                           seed):
        # one party applies Kraus operators K_i, the d x d blocks of a random
        # isometry, so sum_i K_i^dag K_i = I; the branch average of the
        # monotone over the outcomes cannot exceed its value before
        rng = np.random.default_rng(seed)
        mat = haar_ket(d_a * d_b, rng).reshape(d_a, d_b)
        d = (d_a, d_b)[side]
        isometry = haar_unitary(branches * d, rng)[:, :d]
        average = 0.0
        for kraus in isometry.reshape(branches, d, d):
            branch = (kraus @ mat if side == 0 else mat @ kraus.T).ravel()
            p = np.vdot(branch, branch).real
            branch = PureState(branch / math.sqrt(p), (d_a, d_b))
            average += p * entanglement_monotone(branch, [0]).value
        before = entanglement_monotone(PureState(mat.ravel(), (d_a, d_b)), [0]).value
        assert average <= before + 1e-12


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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_not_increased_by_local_measurement_on_average(self, data):
        # one party applies Kraus operators K_i, the d x d blocks of a random
        # isometry, so sum_i K_i^dag K_i = I; the branch average of GME over
        # the outcomes cannot exceed its value before
        n = data.draw(strat.integers(3, 4))
        dims = tuple(data.draw(strat.integers(2, 3)) for _ in range(n))
        party = data.draw(strat.integers(0, n - 1))
        branches = data.draw(strat.integers(2, 4))
        rng = np.random.default_rng(data.draw(strat.integers(0, 2 ** 32 - 1)))
        amp = haar_ket(math.prod(dims), rng)
        d = dims[party]
        isometry = haar_unitary(branches * d, rng)[:, :d]
        average = 0.0
        for kraus in isometry.reshape(branches, d, d):
            branch = on_party(kraus, amp, dims, party)
            p = np.vdot(branch, branch).real
            average += p * gme_monotone(PureState(branch / math.sqrt(p), dims)).value
        assert average <= gme_monotone(PureState(amp, dims)).value + 1e-12

    def test_raised_by_a_unitary_across_two_parties(self):
        # negative control: a unitary on parties 0 and 1 together is not
        # local, and raises GME on some of these draws
        rng = np.random.default_rng(13)
        raised = 0
        for _ in range(20):
            amp = haar_ket(8, rng)
            moved = (haar_unitary(4, rng) @ amp.reshape(4, 2)).ravel()
            raised += (gme_monotone(PureState(moved, (2, 2, 2))).value
                       > gme_monotone(PureState(amp, (2, 2, 2))).value + 1e-9)
        assert raised >= 1

    def test_cut_is_usage_error(self, ghz3):
        # GME ranges over every bipartition and takes no cut
        with pytest.raises(UsageError):
            pure_state_monotone(ghz3, "gme", cut=(0,))

    def test_party_limit(self):
        n = 13
        amp = np.zeros(2 ** n)
        amp[0] = 1.0
        with pytest.raises(ResourceLimitError):
            gme_monotone(PureState(amp, (2,) * n))


def dicke(n, k):
    amp = np.array([bin(i).count("1") == k for i in range(2 ** n)], dtype=float)
    return amp / np.linalg.norm(amp)


def haar_ket(d, rng):
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amp / np.linalg.norm(amp)


@pytest.fixture
def nested_stops(monkeypatch):
    """Whether each nested-bound check of the GME screen cleared every
    remaining cut; a screen stops at the first that did."""
    checks = []
    clears = monotones._nested_clears

    def recording(*args):
        checks.append(clears(*args))
        return checks[-1]

    monkeypatch.setattr(monotones, "_nested_clears", recording)
    return checks


def assert_matches_one_svd_per_cut(w, dims):
    nearest, cuts = free_state_oracle("gme", tuple(dims))
    overlap, phi, choice = nearest(w)
    ref_overlap, ref_phi, ref_choice = gme_product_oracle(w, dims)
    assert choice.tolist() == ref_choice.tolist()
    assert overlap.tobytes() == ref_overlap.tobytes()
    assert np.array_equal(phi, ref_phi)
    assert len(cuts) == 2 ** (len(dims) - 1) - 1
    return overlap, choice


class TestScreenedOracle:
    """The GME oracle's bound screen against one SVD per cut, ties included."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_random_rows(self, data):
        n = data.draw(strat.integers(3, 8))
        dims = []
        for _ in range(n):
            dims.append(data.draw(strat.integers(1, min(3, 512 // math.prod(dims)))))
        rows = data.draw(strat.integers(1, 6))
        rng = np.random.default_rng(data.draw(strat.integers(0, 2 ** 32 - 1)))
        d = math.prod(dims)
        w = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
        # rows the roof meets too: unused (zero) branches and scaled copies
        kind = data.draw(strat.sampled_from(["plain", "zero row", "scaled"]))
        if kind == "zero row":
            w[0] = 0.0
        elif kind == "scaled":
            w *= 10.0 ** rng.uniform(-8, 8, size=(rows, 1))
        assert_matches_one_svd_per_cut(w, dims)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_tie_states(self, n):
        ghz = np.zeros(2 ** n)
        ghz[[0, -1]] = 1.0 / math.sqrt(2.0)
        states = [ghz, dicke(n, 1), dicke(n, n // 2), dicke(n, (n + 1) // 2)]
        for amp in states:
            assert_matches_one_svd_per_cut(amp[None, :].astype(complex), (2,) * n)
        assert_matches_one_svd_per_cut(np.array(states, dtype=complex), (2,) * n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_product_across_a_balanced_cut(self, n):
        rng = np.random.default_rng(n)
        half = 2 ** (n // 2)
        a, b = (rng.standard_normal(half) + 1j * rng.standard_normal(half) for _ in range(2))
        amp = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        scrambled = haar_unitary(2 ** n, rng) @ amp
        assert_matches_one_svd_per_cut(np.array([amp, scrambled]), (2,) * n)

    def test_ghz_witness_is_the_first_cut(self, ghz3):
        assert gme_monotone(ghz3).witness["cut"] == ((0,), (1, 2))

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_haar_states_stop_at_nested_bounds(self, n, nested_stops):
        amp = haar_ket(2 ** n, np.random.default_rng(100 + n))
        assert_matches_one_svd_per_cut(amp[None, :], (2,) * n)
        assert nested_stops[-1]

    def test_product_of_two_haar_blocks(self, nested_stops):
        # the winner is the balanced cut between the blocks, lambda_1 = 1:
        # its nested bound is at least 1, so it is never skipped
        rng = np.random.default_rng(6)
        amp = np.kron(haar_ket(64, rng), haar_ket(64, rng))
        overlap, choice = assert_matches_one_svd_per_cut(amp[None, :], (2,) * 12)
        assert choice.tolist() == [0b11111]  # side A = parties 0..5
        assert abs(overlap[0] - 1.0) < 1e-12
        assert nested_stops and not any(nested_stops)

    def test_ghz_times_haar(self, nested_stops):
        ghz = np.zeros(8)
        ghz[[0, -1]] = 1.0 / math.sqrt(2.0)
        amp = np.kron(ghz, haar_ket(2 ** 7, np.random.default_rng(7)))
        assert_matches_one_svd_per_cut(amp[None, :], (2,) * 10)
        assert nested_stops[-1]

    @pytest.mark.parametrize("dims", [(2, 3, 2, 3, 2, 3, 2, 3), (3, 2, 1, 3, 2, 2, 1, 2, 3, 2),
                                      (1, 3, 2, 2, 3, 1, 2, 2, 2)])
    def test_mixed_dimensions(self, dims, nested_stops):
        amp = haar_ket(math.prod(dims), np.random.default_rng(len(dims)))
        assert_matches_one_svd_per_cut(amp[None, :], dims)
        assert nested_stops[-1]

    @pytest.mark.parametrize("dims, pairs", [((2,) * 6, [(0, 1), (2, 3), (4, 5)]),
                                             ((3, 1, 3, 2, 2), [(0, 2), (3, 4)])])
    def test_nested_bounds_hold_within_the_margin(self, dims, pairs):
        # maximally entangled pairs make lambda_1(A) = d_T lambda_1(A less T)
        # exact for a side A holding a pair and T one of its parties
        amp = np.zeros(dims)
        for idx in np.ndindex(*dims):
            amp[idx] = all(idx[a] == idx[b] for a, b in pairs)
        amp = amp.ravel() / np.linalg.norm(amp)
        cuts, levels = monotones._gme_table(dims)
        lam = []
        for side_a, side_b in cuts:
            mat = amp.reshape(dims).transpose(side_a + side_b).reshape(math.prod(
                dims[k] for k in side_a), -1)
            lam.append(np.linalg.svd(mat, compute_uv=False)[0] ** 2)
        lam = np.array(lam)[:, None]
        assert lam.max() == pytest.approx(1.0)
        # each sub-side is a side of its cut with one party T less, d_T apart
        def missing(side, part):
            rest = set(side) - set(part)
            return rest.pop() if set(part) < set(side) and len(rest) == 1 else None

        for index, subs, factor, _ in levels[1:]:
            for c, sub, dt in zip(index, subs, factor[:, :, 0]):
                for s_cut, d_t in zip(sub, dt):
                    assert any(missing(side, part) is not None and d_t == dims[missing(side, part)]
                               for side in cuts[c] for part in cuts[s_cut])
        # bounds that undershoot by up to the margin, as rounded ones may,
        # still bound every larger side: the margin is carried through d_T
        margin = np.array([1e-3])
        upper = lam - 0.999 * margin
        for index, subs, factor, _ in levels[1:]:
            assert (monotones._nested_upper(upper, subs, factor, margin) >= lam[index]).all()

    @staticmethod
    def three_rows(d, rng):
        # a Haar row, a zero row that forms every level, a scaled row
        return np.array([haar_ket(d, rng), np.zeros(d), 1e-6 * haar_ket(d, rng)])

    def test_rows_end_in_partial_blocks(self, monkeypatch):
        blocks = []
        einsum = np.einsum

        def recording_einsum(subscripts, *operands, **kwargs):
            if subscripts == "...ij,...ij->...":  # once per block of Gram matrices
                blocks.append(operands[0].shape[1:3])
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", recording_einsum)
        assert_matches_one_svd_per_cut(self.three_rows(2 ** 9, np.random.default_rng(9)),
                                       (2,) * 9)
        # a block holds up to (d // S**2) * SCREEN_CHUNK cuts of side S
        assert blocks == ([(9, 2), (36, 4), (32, 8), (32, 8), (20, 8)]
                          + [(8, 16)] * 15 + [(6, 16)])

    def test_mixed_dimension_rows(self):
        # groups of 40 cuts with S = 16 and of 30 with S = 24 end in blocks
        # of 4 and 2 cuts
        dims = (2, 2, 3, 2, 2, 2, 2, 2, 2)
        assert_matches_one_svd_per_cut(
            self.three_rows(math.prod(dims), np.random.default_rng(3)), dims)

    def test_screen_memory_is_a_few_states(self):
        psi = PureState(haar_ket(2 ** 12, np.random.default_rng(12)), (2,) * 12)
        gme_monotone(psi)  # builds the cut table, which is kept
        tracemalloc.start()
        try:
            gme_monotone(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a Gram block as large as a whole group of cuts would take 2 MB at
        # the 4-qubit sides alone, 32 times the state
        assert peak <= 24 * psi.amplitudes.nbytes

    def test_large_cuts_are_not_gathered(self, monkeypatch):
        # at twelve qubits the bounds from the cuts with up to 4-qubit sides
        # clear every cut with a 5- or 6-qubit smaller side: none of their
        # matrices is formed, by a gather or by a transpose
        formed = []
        take, cut_matrices = np.take, monotones._cut_matrices

        def counting_take(a, indices, *args, **kwargs):
            if np.ndim(indices) == 3:  # (cut, smaller side, larger side) offsets
                formed.extend([np.shape(indices)[1]] * len(indices))
            return take(a, indices, *args, **kwargs)

        def counting_cut_matrices(w, dims, cut):
            mats = cut_matrices(w, dims, cut)
            formed.append(min(mats.shape[1:]))
            return mats

        monkeypatch.setattr(np, "take", counting_take)
        monkeypatch.setattr(monotones, "_cut_matrices", counting_cut_matrices)
        amp = haar_ket(2 ** 12, np.random.default_rng(2024))
        gme_monotone(PureState(amp, (2,) * 12))
        sizes = {size: formed.count(size) for size in set(formed)}
        # every cut with a 1- to 4-qubit side, the winner's once more
        assert sizes == {2: 13, 4: 66, 8: 220, 16: 495}


def on_party(op, amp, dims, k):
    """``amp`` with the operator ``op`` applied to party ``k``."""
    tensor = np.tensordot(op, amp.reshape(dims), axes=([1], [k]))
    return np.moveaxis(tensor, 0, k).ravel()


def local_rotation(amp, dims, rng):
    """``amp`` with an independent Haar unitary on each party."""
    for k, d in enumerate(dims):
        amp = on_party(haar_unitary(d, rng), amp, dims, k)
    return amp


def assert_gme_invariant(amp, dims, order, rng):
    base = gme_monotone(PureState(amp, dims)).value
    relabeled = PureState(amp.reshape(dims).transpose(order).ravel(), [dims[k] for k in order])
    assert abs(gme_monotone(relabeled).value - base) < 1e-12
    rotated = PureState(local_rotation(amp, dims, rng), dims)
    assert abs(gme_monotone(rotated).value - base) < 1e-12


class TestFreeUnitaryInvariance:
    """Each closed-form monotone is invariant under the free unitaries of
    its theory."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(strat.integers(1, 16), strat.integers(0, 2 ** 32 - 1))
    def test_coherence_under_phased_permutations(self, d, seed):
        rng = np.random.default_rng(seed)
        amp = haar_ket(d, rng)
        moved = np.exp(2j * np.pi * rng.random(d)) * amp[rng.permutation(d)]
        base = coherence_monotone(PureState(amp)).value
        assert abs(coherence_monotone(PureState(moved)).value - base) < 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(strat.integers(0, 2 ** 32 - 1))
    def test_magic_under_cliffords(self, seed):
        amp = haar_ket(2, np.random.default_rng(seed))
        base = nonstabilizerness_monotone(PureState(amp)).value
        for u in CLIFFORDS:
            assert abs(nonstabilizerness_monotone(PureState(u @ amp)).value - base) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_entanglement_under_local_unitaries(self, data):
        n = data.draw(strat.integers(2, 5))
        dims = [data.draw(strat.integers(1, 4)) for _ in range(n)]
        side_a = sorted(data.draw(strat.sets(strat.integers(0, n - 1), min_size=1,
                                             max_size=n - 1)))
        side_b = [k for k in range(n) if k not in side_a]
        rng = np.random.default_rng(data.draw(strat.integers(0, 2 ** 32 - 1)))
        amp = haar_ket(math.prod(dims), rng)
        base = entanglement_monotone(PureState(amp, dims), side_a).value
        # the state as its d_A x d_B matrix, and back
        d_a = math.prod(dims[k] for k in side_a)
        mat = amp.reshape(dims).transpose(side_a + side_b).reshape(d_a, -1)
        shape = [dims[k] for k in side_a + side_b]
        back = np.argsort(side_a + side_b)
        for moved in (haar_unitary(d_a, rng) @ mat, mat @ haar_unitary(mat.shape[1], rng)):
            rotated = PureState(moved.reshape(shape).transpose(back).ravel(), dims)
            assert abs(entanglement_monotone(rotated, side_a).value - base) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_gme_under_local_unitaries_and_relabeling(self, data):
        n = data.draw(strat.integers(2, 7))
        dims = [data.draw(strat.integers(1, 3)) for _ in range(n)]
        order = data.draw(strat.permutations(range(n)))
        rng = np.random.default_rng(data.draw(strat.integers(0, 2 ** 32 - 1)))
        assert_gme_invariant(haar_ket(math.prod(dims), rng), dims, order, rng)

    @pytest.mark.parametrize("n", [11, 12])
    def test_gme_invariance_through_nested_bounds(self, n, nested_stops):
        rng = np.random.default_rng(n)
        assert_gme_invariant(haar_ket(2 ** n, rng), [2] * n, rng.permutation(n), rng)
        assert nested_stops.count(True) == 3  # each screen stopped at the bounds


def draw_parties(data, low=1):
    """2 to 4 parties of dimensions ``low`` to 4, a Haar ket on them, and a
    proper bipartition ``(side A, side B)``."""
    n = data.draw(strat.integers(2, 4))
    dims = tuple(data.draw(strat.integers(low, 4)) for _ in range(n))
    side_a = data.draw(strat.sets(strat.integers(0, n - 1), min_size=1, max_size=n - 1))
    cut = tuple(sorted(side_a)), tuple(k for k in range(n) if k not in side_a)
    rng = np.random.default_rng(data.draw(strat.integers(0, 2 ** 32 - 1)))
    return dims, haar_ket(math.prod(dims), rng), cut, rng


def in_party_order(u, dims, order):
    """A matrix whose rows run over the parties taken in ``order``, its rows
    put in the parties' own order; its columns, say basis kets, keep theirs."""
    rows = u.reshape(tuple(dims[k] for k in order) + (u.shape[1],))
    return rows.transpose(tuple(np.argsort(order)) + (len(order),)).reshape(u.shape)


def product_basis(local_a, local_b, dims, cut):
    """The basis ``local_a x local_b`` across ``cut``, on the parties in
    their own order; ``OrthonormalBasis`` checks that it is unitary."""
    return OrthonormalBasis(in_party_order(np.kron(local_a, local_b), dims, cut[0] + cut[1]))


def schmidt_pair_basis(amp, dims, cut):
    """The product basis across ``cut`` whose uniform superposition is the
    leading Schmidt pair of ``amp``: each side's unitary maps its uniform
    ket onto a leading singular vector of the cut's matrix."""
    side_a, side_b = cut
    mat = amp.reshape(dims).transpose(side_a + side_b).reshape(
        math.prod(dims[k] for k in side_a), -1)
    u, _, vh = np.linalg.svd(mat)
    return product_basis(_unitary_mapping_uniform_to(u[:, 0]),
                         _unitary_mapping_uniform_to(vh[0]), dims, cut)


def monotone_of(theory, psi, cut):
    if theory == "gme":
        return gme_monotone(psi)
    return entanglement_monotone(psi, cut[0])


class TestNonLocalTexture:
    """Non-local texture, the least texture over product bases, equals the
    entanglement monotones on pure states (Wei and Goldbart, PRA 68, 042307
    (2003)): the monotone's own Schmidt pair gives a product basis that
    attains the value, and no product basis goes below it."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(strat.data(), strat.sampled_from(["entanglement_bipartite", "gme"]),
           strat.booleans())
    def test_schmidt_pair_basis_attains_the_value(self, data, theory, product):
        dims, amp, cut, rng = draw_parties(data)
        if product:  # a product across the cut, where both values are 0
            amp = np.kron(*(haar_ket(math.prod(dims[k] for k in side), rng) for side in cut))
            amp = in_party_order(amp[:, None], dims, cut[0] + cut[1]).ravel()
        psi = PureState(amp, dims)
        result = monotone_of(theory, psi, cut)
        basis = schmidt_pair_basis(psi.amplitudes, dims, result.witness["cut"])
        assert abs(texture_in_basis(psi, basis).texture - result.value) < 1e-12
        assert not product or result.value < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_product_bases_never_go_below_the_value(self, data):
        # Haar product bases across any cut, and that cut's Schmidt-pair
        # basis, which attains the cut's value: GME is the least over cuts
        dims, amp, cut, rng = draw_parties(data)
        psi = PureState(amp, dims)
        d_a = math.prod(dims[k] for k in cut[0])
        values = entanglement_monotone(psi, cut[0]).value, gme_monotone(psi).value
        bases = [product_basis(haar_unitary(d_a, rng), haar_unitary(len(amp) // d_a, rng),
                               dims, cut) for _ in range(3)]
        for basis in bases + [schmidt_pair_basis(psi.amplitudes, dims, cut)]:
            assert texture_in_basis(psi, basis).texture >= max(values) - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(strat.data(), strat.sampled_from(["entanglement_bipartite", "gme"]))
    def test_an_entangled_basis_goes_below_the_value(self, data, theory):
        # negative control: the basis that maps the uniform ket onto psi is
        # entangled across every cut and gives texture 0 below every
        # entangled value (a Haar basis of the whole space rarely does)
        dims, amp, cut, _ = draw_parties(data, low=2)
        psi = PureState(amp, dims)
        value = monotone_of(theory, psi, cut).value
        basis = OrthonormalBasis(_unitary_mapping_uniform_to(psi.amplitudes))
        assert texture_in_basis(psi, basis).texture < 1e-12 < value


class TestConcurrence:
    def test_matches_independent_oracle(self):
        for seed in range(20):
            rho = random_state(4, "mixed", seed=seed, subsystem_dims=(2, 2))
            ours = concurrence_two_qubit(rho)
            ref = wootters_concurrence(rho.matrix)
            assert abs(ours - ref) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_other_dimensions_rejected(self, d):
        with pytest.raises(UsageError, match="two qubits"):
            concurrence_two_qubit(random_state(d, "mixed", seed=d))

    def test_bell_and_product(self, bell_state):
        assert abs(concurrence_two_qubit(bell_state) - 1.0) < 1e-10
        prod = PureState(np.kron([1.0, 0.0], [1.0, 0.0]), (2, 2))
        assert concurrence_two_qubit(prod) < 1e-10

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_mpmath_at_every_rank(self, rank):
        # the square roots of a float eigvals of rho YY rho* YY lose up to
        # 3e-8; here 40 digits give the reference from the same float matrix
        mpmath = pytest.importorskip("mpmath")
        yy = np.kron(SY, SY)
        rng = np.random.default_rng(rank)
        for _ in range(20):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            mat = g @ g.conj().T
            rho = DensityMatrix(0.5 * (mat + mat.conj().T) / np.trace(mat).real, (2, 2))
            with mpmath.workdps(40):
                r = mpmath.matrix(rho.matrix.tolist())
                flip = mpmath.matrix((yy @ rho.matrix.conj() @ yy).tolist())
                nu = sorted((max(mpmath.re(e), 0) for e in mpmath.eig(r * flip)[0]), reverse=True)
                roots = [mpmath.sqrt(v) for v in nu]
                want = float(max(0, roots[0] - roots[1] - roots[2] - roots[3]))
            assert abs(concurrence_two_qubit(rho) - want) <= 1e-13

    def test_pure_states_form_no_projector(self, monkeypatch):
        # a pure state's B is its amplitudes; its roof is read the same way
        def projector(self):
            raise AssertionError("projector formed")

        monkeypatch.setattr(PureState, "projector", projector)
        for seed in range(5):
            psi = random_state(4, "pure", seed=seed, subsystem_dims=(2, 2))
            a, b, c, d = psi.amplitudes
            assert abs(concurrence_two_qubit(psi) - 2.0 * abs(a * d - b * c)) <= 1e-15
            res = convex_roof(psi, "entanglement_bipartite")
            want = entanglement_roof_of_concurrence(concurrence_two_qubit(psi))
            assert abs(res.lower_bound - want) <= 1e-15
