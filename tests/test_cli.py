import hashlib
import json
import math

import numpy as np
import pytest

from statetexture import DensityMatrix, PureState, load_state, random_state, save_state
from statetexture.cli import MAX_SCAN_POINTS, main


@pytest.fixture
def bell_file(tmp_path, bell_state):
    path = tmp_path / "bell.state"
    save_state(path, bell_state)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.state"
    save_state(path, DensityMatrix(np.eye(2, dtype=complex) / 2, (2,)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_structured(text):
    fields = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


class TestTextureCommand:
    def test_bell_texture(self, capsys, bell_file):
        code, out, _ = run(capsys, "texture", "--state", bell_file,
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert float(fields["grand_sum"]) == pytest.approx(2.0, abs=1e-12)
        assert float(fields["texture"]) == pytest.approx(0.5, abs=1e-12)

    def test_fourier_basis_flag(self, capsys, bell_file):
        code, out, _ = run(capsys, "texture", "--state", bell_file,
                           "--basis", "fourier", "--format", "structured")
        assert code == 0
        assert 0.0 <= float(parse_structured(out)["texture"]) <= 1.0

    def test_unitary_file_basis(self, capsys, tmp_path, bell_file):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        u = np.kron(h, h)
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"re": u.real.tolist(), "im": u.imag.tolist()}))
        code, out, _ = run(capsys, "texture", "--state", bell_file,
                           "--basis", str(path), "--format", "structured")
        assert code == 0
        # Bell state in the Hadamard-pair basis keeps grand sum 2
        assert float(parse_structured(out)["grand_sum"]) == pytest.approx(2.0, abs=1e-10)

    def test_extrema_subcommand(self, capsys, bell_file):
        code, out, _ = run(capsys, "texture", "extrema", "--state", bell_file,
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert float(fields["t_max"]) == pytest.approx(1.0, abs=1e-10)
        assert float(fields["t_min"]) == pytest.approx(0.0, abs=1e-10)


class TestPurityCommand:
    def test_maximally_mixed(self, capsys, mixed_file):
        code, out, _ = run(capsys, "purity", "--state", mixed_file,
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert float(fields["texture_purity"]) == pytest.approx(0.0, abs=1e-12)
        assert fields["single_shot_cost"] == "none"

    def test_alpha_list(self, capsys, mixed_file):
        code, out, _ = run(capsys, "purity", "--state", mixed_file,
                           "--alpha", "2,3,0.5", "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert "renyi_purity_3" in fields and "renyi_purity_0.5" in fields

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_usage_error(self, capsys, mixed_file, alpha):
        # nan once printed "renyi_purity_nan  nan" and inf raised a math
        # domain error; the min-entropy limit at inf is not offered
        code, out, err = run(capsys, "purity", "--state", mixed_file, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")


class TestMonotoneCommand:
    def test_entangle(self, capsys, bell_file):
        code, out, _ = run(capsys, "monotone", "entangle", "--state", bell_file,
                           "--cut", "0:1", "--format", "structured")
        assert code == 0
        assert float(parse_structured(out)["value"]) == pytest.approx(0.5, abs=1e-12)

    def test_ggm(self, capsys, tmp_path, ghz3):
        path = tmp_path / "ghz.state"
        save_state(path, ghz3)
        code, out, _ = run(capsys, "monotone", "ggm", "--state", str(path),
                           "--format", "structured")
        assert code == 0
        assert float(parse_structured(out)["value"]) == pytest.approx(0.5, abs=1e-12)

    def test_magic_on_qubit(self, capsys, tmp_path):
        t = PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2))
        path = tmp_path / "t.state"
        save_state(path, t)
        code, out, _ = run(capsys, "monotone", "magic", "--state", str(path),
                           "--format", "structured")
        assert code == 0
        want = 0.5 * (1 - 1 / math.sqrt(2))
        assert float(parse_structured(out)["value"]) == pytest.approx(want, abs=1e-10)

    def test_structured_output_golden(self, capsys, tmp_path, ghz3):
        t = PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2))
        product = PureState(np.kron([1.0, 0.0], [1.0, 1.0]) / math.sqrt(2), (2, 2))
        golden = {
            ("ggm", ghz3): "theory gme\nvalue 0.5\nwitness_cut ((0,), (1, 2))\n"
                           "witness_largest_schmidt 0.5\n",
            ("magic", t): "theory nonstabilizerness\nvalue 0.146446609407\n"
                          "witness_axis x\nwitness_magnetization 0.707106781187\n",
            ("entangle", product): "theory entanglement_bipartite\nvalue 0\n"
                                   "witness_cut ((0,), (1,))\nwitness_largest_schmidt 1\n",
        }
        for (flag, state), want in golden.items():
            path = tmp_path / f"{flag}.state"
            save_state(path, state)
            code, out, _ = run(capsys, "monotone", flag, "--state", str(path),
                               "--format", "structured")
            assert code == 0
            assert out == want

    def test_requires_pure_state(self, capsys, mixed_file):
        code, _, err = run(capsys, "monotone", "coherence", "--state", mixed_file)
        assert code == 2
        assert "pure" in err


class TestConvexRoofCommand:
    def test_bell_projector(self, capsys, tmp_path, bell_state):
        path = tmp_path / "bellmixed.state"
        save_state(path, bell_state.projector())
        dump = tmp_path / "decomp.json"
        code, out, _ = run(capsys, "convexroof", "--state", str(path),
                           "--theory", "entangle", "--restarts", "1",
                           "--cardinality", "2", "--seed", "3",
                           "--dump-decomposition", str(dump),
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert float(fields["value"]) == pytest.approx(0.5, abs=1e-8)
        doc = json.loads(dump.read_text())
        assert abs(sum(doc["probabilities"]) - 1.0) < 1e-10


    @pytest.mark.parametrize("flags", [
        ("--restarts", "0"),
        ("--restarts", "-3"),
        ("--cardinality", "0"),
        ("--tolerance", "-1", "--restarts", "1"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--max-iterations", "0"),
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, bell_state, flags):
        # each of these once ended in a traceback, or in a "converged" value
        # that the optimizer never computed (a negative tolerance)
        path = tmp_path / "ginibre.state"
        save_state(path, random_state(4, "mixed", seed=5, subsystem_dims=(2, 2)))
        code, out, err = run(capsys, "convexroof", "--state", str(path),
                             "--theory", "entangle", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")


class TestIsingCommands:
    def test_point_full(self, capsys):
        code, out, _ = run(capsys, "ising", "point", "--n", "8", "--h", "1.0",
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert fields["method"] == "analytic"
        assert float(fields["rugosity"]) > 0

    def test_point_ed_matches_analytic(self, capsys):
        _, out_a, _ = run(capsys, "ising", "point", "--n", "8", "--h", "0.7",
                          "--method", "analytic", "--format", "structured")
        _, out_e, _ = run(capsys, "ising", "point", "--n", "8", "--h", "0.7",
                          "--method", "ed", "--format", "structured")
        va = float(parse_structured(out_a)["rugosity"])
        ve = float(parse_structured(out_e)["rugosity"])
        assert va == pytest.approx(ve, abs=1e-8)

    def test_scan_csv_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "ising", "scan", "--n", "64", "--axis", "h",
                           "--from", "0", "--to", "2", "--step", "0.1",
                           "--kink-window", "0.8,1.2", "--out", str(out_path),
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "point,rugosity,normalized_rugosity,d1,d2"
        assert lines[-1].startswith("# kink_estimate =")
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 21
        # round-trip at 12 significant digits
        from statetexture import ChainSpec, analytic_rugosity
        for row in (rows[0], rows[10], rows[20]):
            h = float(row[0])
            want = analytic_rugosity(ChainSpec(64, h))
            assert float(row[1]) == pytest.approx(want, rel=1e-11)
        # derivative columns empty exactly at the edges
        assert rows[0][3] == "" and rows[0][4] == ""
        assert rows[1][3] != "" and rows[1][4] == ""
        assert rows[2][3] != "" and rows[2][4] != ""

    def test_scan_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "ising", "scan", "--n", "16", "--axis", "h",
                           "--from", "0.5", "--to", "1.5", "--step", "0.25")
        assert code == 0
        assert "point,rugosity,normalized_rugosity,d1,d2" in out

    def test_emit_plot(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        plot_path = tmp_path / "plot.py"
        code, _, _ = run(capsys, "ising", "scan", "--n", "16", "--axis", "h",
                         "--from", "0.5", "--to", "1.5", "--step", "0.25",
                         "--out", str(csv_path), "--emit-plot", str(plot_path))
        assert code == 0
        script = plot_path.read_text()
        assert str(csv_path) in script
        compile(script, str(plot_path), "exec")

    def test_g_scan_requires_fixed_h(self, capsys):
        code, out, err = run(capsys, "ising", "scan", "--n", "6", "--axis", "g",
                             "--from", "-0.2", "--to", "0.2", "--step", "0.1")
        assert code == 2
        assert out == ""


class TestContract:
    def test_determinism_byte_identical(self, capsys, bell_file):
        _, out1, _ = run(capsys, "texture", "--state", bell_file, "--format", "structured")
        _, out2, _ = run(capsys, "texture", "--state", bell_file, "--format", "structured")
        assert out1 == out2

    def test_nothing_written_on_usage_error(self, capsys, tmp_path):
        target = tmp_path / "never.csv"
        code, _, _ = run(capsys, "ising", "scan", "--n", "32", "--axis", "h",
                         "--from", "0.2", "--to", "1.8", "--step", "0.2",
                         "--kink-window", "0.8", "--out", str(target))
        assert code == 2
        assert not target.exists()

    def test_scan_csv_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, "ising", "scan", "--n", "32", "--axis", "h",
                             "--from", "0.2", "--to", "1.8", "--step", "0.2",
                             "--kink-window", "0.8,1.2", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_inputs_never_mutated(self, capsys, bell_file):
        before = hashlib.sha256(open(bell_file, "rb").read()).hexdigest()
        run(capsys, "texture", "--state", bell_file)
        run(capsys, "texture", "extrema", "--state", bell_file)
        after = hashlib.sha256(open(bell_file, "rb").read()).hexdigest()
        assert before == after

    def test_usage_error_exit_code(self, capsys, bell_file):
        code, out, err = run(capsys, "monotone", "entangle", "--state", bell_file,
                             "--cut", "0:0")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_invalid_state_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.state"
        bad.write_text('{"dims": [2], "kind": "pure", "re": [1.0], "im": [0.0, 0.0]}')
        code, out, err = run(capsys, "texture", "--state", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("field, value", [
        ("re", ["1", 0]), ("re", [True, 0]), ("re", [None, 0]), ("im", [0, False]),
        ("dims", [True, 2]),
    ])
    def test_non_numeric_state_entries_rejected(self, capsys, tmp_path, field, value):
        doc = {"dims": [2], "kind": "pure", "re": [1, 0], "im": [0, 0]}
        doc[field] = value
        bad = tmp_path / "bad.state"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "texture", "--state", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_non_numeric_matrix_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.state"
        bad.write_text(json.dumps({"dims": [2], "kind": "mixed", "re": [[1, 0], [0, "0"]],
                                   "im": [[0, 0], [0, 0]]}))
        code, _, err = run(capsys, "texture", "--state", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_valid_state_file_round_trips_exactly(self, tmp_path, kind):
        state = random_state(4, kind, seed=31, subsystem_dims=(2, 2))
        first, second = tmp_path / "a.state", tmp_path / "b.state"
        save_state(first, state)
        loaded = load_state(first)
        save_state(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        data = state.amplitudes if kind == "pure" else state.matrix
        assert np.array_equal(loaded.amplitudes if kind == "pure" else loaded.matrix, data)
        assert loaded.subsystem_dims == (2, 2)

    @pytest.mark.parametrize("flag, value", [("--from", "nan"), ("--to", "inf"),
                                             ("--step", "nan"), ("--step", "1e-300")])
    def test_unbounded_scan_grid_is_usage_error(self, capsys, flag, value):
        argv = {"--from": "0", "--to": "2", "--step": "0.5"}
        argv[flag] = value
        code, out, err = run(capsys, "ising", "scan", "--n", "8", "--axis", "h",
                             *(tok for pair in argv.items() for tok in pair))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("ising", "point", "--n", "16", "--h", "nan"),
        ("ising", "point", "--n", "16", "--h", "inf", "--observable", "pair"),
        ("ising", "point", "--n", "16", "--h", "0.5", "--g", "nan", "--method", "ed"),
        ("ising", "point", "--n", "16", "--h", "0.5", "--g", "inf", "--method", "ed"),
        ("ising", "scan", "--n", "8", "--axis", "g", "--h", "nan",
         "--from", "-0.2", "--to", "0.2", "--step", "0.1"),
        ("ising", "scan", "--n", "8", "--axis", "h", "--g=-inf",
         "--from", "0", "--to", "2", "--step", "0.5"),
    ])
    def test_non_finite_field_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_scan_point_cap_checked_before_allocation(self, capsys, monkeypatch):
        class Allocated(Exception):
            pass

        def arange(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(np, "arange", arange)
        step = repr(1.0 / MAX_SCAN_POINTS)
        # MAX_SCAN_POINTS + 1 points: rejected before the grid exists
        code, _, err = run(capsys, "ising", "scan", "--n", "8", "--axis", "h",
                           "--from", "0", "--to", "1", "--step", step)
        assert code == 2
        assert "usage error:" in err
        # exactly MAX_SCAN_POINTS points: passes the check and reaches the grid
        with pytest.raises(Allocated):
            main(["ising", "scan", "--n", "8", "--axis", "h", "--from", "0",
                  "--to", repr(1.0 - 1.0 / MAX_SCAN_POINTS), "--step", step])

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "texture", "--state", str(tmp_path / "nope.state"))
        assert code == 1

    def test_unknown_flag_rejected(self, capsys, bell_file):
        code, _, _ = run(capsys, "texture", "--state", bell_file, "--frobnicate")
        assert code == 2


class TestSelftest:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selftest")
        code2, out2, _ = run(capsys, "selftest")
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert "FAIL" not in out1

    def test_detects_corruption(self, monkeypatch, capsys):
        # break one primitive; at least one named check must fail
        from statetexture import selftest as st_mod

        def broken(rho):
            raise AssertionError("corrupted")

        monkeypatch.setattr(st_mod.states, "spectral_decompose", broken)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL" in out
