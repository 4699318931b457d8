import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from statetexture import (DensityMatrix, PureState, InvalidStateError, ising, load_state, purity,
                          random_state, roof, save_state, stateio)
from statetexture.cli import MAX_SCAN_POINTS, main
from statetexture.ising import MAX_ANALYTIC_SITES, MAX_ED_SITES


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


@pytest.fixture(scope="module")
def fuzz_states(tmp_path_factory):
    """State files for the fuzz tests, which cannot take per-test fixtures."""
    root = tmp_path_factory.mktemp("fuzz")
    ghz = np.zeros(8)
    ghz[[0, -1]] = 1.0 / math.sqrt(2.0)
    states = {"qubit": random_state(2, "mixed", seed=3),
              "rank2": DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex), (2, 2)),
              "pure": random_state(4, "pure", seed=4),
              "ghz3": PureState(ghz, (2, 2, 2))}
    for name, state in states.items():
        save_state(root / name, state)
    return {name: str(root / name) for name in states}


def run_quietly(argv):
    """``main(argv)`` with its output captured and warnings silenced; checks
    the contract that every fuzzed command keeps: an exit code of 0, 1 or 2,
    no traceback and no nan."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())
    return code, out.getvalue(), err.getvalue()


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

    def test_pure_state_builds_no_projector(self, capsys, monkeypatch, bell_file):
        # texture_in_basis reads a pure state from its amplitudes
        calls = []
        projector = PureState.projector
        monkeypatch.setattr(PureState, "projector",
                            lambda self: calls.append(1) or projector(self))
        code, _, _ = run(capsys, "texture", "--state", bell_file)
        assert code == 0
        assert calls == []

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

    @pytest.mark.parametrize("entry, code, prefix", [
        (math.nan, 1, "error:"), (-math.inf, 1, "error:"), (1e308, 2, "usage error:")])
    def test_bad_unitary_file_entry(self, capsys, tmp_path, bell_file, entry, code, prefix):
        # one nan entry printed "texture nan" and exited 0; a 1e308 entry
        # printed RuntimeWarnings from U^dag U before its usage error
        u = np.eye(4)
        u[2, 1] = entry
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"re": u.tolist(), "im": np.zeros((4, 4)).tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, out, err = run(capsys, "texture", "--state", bell_file, "--basis", str(path))
        assert (got, out) == (code, "")
        assert err.startswith(prefix)

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read unitary file {}: "), ("{not json", "unitary file {} is not valid JSON"),
        ('{"re": [["1"]], "im": [[0]]}', "unitary file {}: field 're' must hold only numbers"),
        ('{"im": [[0]]}', "unitary file {}: field 're' must be a nested list")],
        ids=["missing", "malformed", "non-numeric", "no-re"])
    def test_unitary_file_errors_name_the_unitary_file(self, capsys, tmp_path, bell_file,
                                                       content, message):
        # these once said "state file" of a --basis file
        path = tmp_path / "basis.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, "texture", "--state", bell_file, "--basis", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(path))

    def test_one_dimensional_state_rugosity_is_not_negative(self, capsys, tmp_path):
        path = tmp_path / "one.state"
        save_state(path, PureState(np.ones(1), (1,)))
        code, out, _ = run(capsys, "texture", "--state", str(path), "--format", "structured")
        assert code == 0
        assert parse_structured(out)["rugosity"] == "0"

    def test_extrema_subcommand(self, capsys, bell_file):
        code, out, _ = run(capsys, "texture", "extrema", "--state", bell_file,
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert float(fields["t_max"]) == pytest.approx(1.0, abs=1e-10)
        assert float(fields["t_min"]) == pytest.approx(0.0, abs=1e-10)

    def test_extrema_of_a_pure_state_above_unit_norm(self, capsys, tmp_path):
        # a norm of 1 + 0.9e-12, within NORM_TOL, printed t_min -1.79989356752e-12
        path = tmp_path / "near.state"
        save_state(path, PureState(np.array([1.0 + 0.9e-12, 0.0])))
        code, out, _ = run(capsys, "texture", "extrema", "--state", str(path))
        assert (code, out) == (0, "t_max  1\nt_min  0\n")


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


def run_under_blas_threads(commands, threads):
    """The stdout of ``main`` on each argv of ``commands``, each followed by
    its exit code, from a fresh interpreter with ``threads`` BLAS threads."""
    code = ("import sys\nfrom statetexture.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    print(main(argv))\n"
            "    sys.stdout.flush()\n")
    src = str(Path(purity.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath,
                                   OPENBLAS_NUM_THREADS=threads,
                                   OMP_NUM_THREADS=threads)).stdout


def test_spectral_commands_print_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # the texture and purity commands read a 256 x 256 state through BLAS
    # (its eigh, rho @ s); a second thread must not change a printed digit
    path = tmp_path / "mixed8.state"
    save_state(path, random_state(256, "mixed", seed=3, subsystem_dims=(2,) * 8))
    commands = [["texture"], ["texture", "--basis", "fourier"], ["texture", "extrema"],
                ["purity", "--alpha", "2,3,0.5"]]
    one, two = (run_under_blas_threads([argv + ["--state", str(path)] for argv in commands], k)
                for k in ("1", "2"))
    lines = one.decode().splitlines()
    assert [line for line in lines if line in ("0", "1", "2")] == ["0"] * 4
    assert sum(line.startswith(("texture ", "t_max ", "renyi_purity_0.5 ")) for line in lines) == 4
    assert one == two


def test_exact_roofs_print_and_dump_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # the exact roofs are LAPACK calls on the state's spectrum: the Takagi
    # eigh, the Wootters rotation's eigh and the QR; a second thread must not
    # change a printed digit or a dumped byte
    states = {"ginibre2x2": random_state(4, "mixed", seed=5, subsystem_dims=(2, 2)),
              "qubit": random_state(2, "mixed", seed=0),
              "rank1": random_state(4, "pure", seed=6, subsystem_dims=(2, 2)).projector()}
    for name, state in states.items():
        save_state(tmp_path / name, state)
    cases = [("ginibre2x2", "entangle"), ("qubit", "magic"), ("qubit", "coherence"),
             ("rank1", "entangle")]
    dumps = [tmp_path / f"decomposition{i}.json" for i in range(len(cases))]
    commands = [["convexroof", "--state", str(tmp_path / name), "--theory", theory,
                 "--dump-decomposition", str(dump)] for (name, theory), dump in zip(cases, dumps)]
    runs = []
    for k in ("1", "2"):
        runs.append((run_under_blas_threads(commands, k), [dump.read_bytes() for dump in dumps]))
    lines = runs[0][0].decode().splitlines()
    assert [line for line in lines if line in ("0", "1", "2")] == ["0"] * 4
    assert sum(line.startswith("decomposition_size ") for line in lines) == 4
    assert runs[0] == runs[1]


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

    def test_product_state_prints_zero(self, capsys, tmp_path):
        # a roof that rounds below 0 (-4.4e-16 here) prints as 0
        path = tmp_path / "product.state"
        save_state(path, PureState(np.eye(4)[0], (2, 2)))
        code, out, _ = run(capsys, "convexroof", "--state", str(path), "--theory", "entangle",
                           "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        assert (fields["value"], fields["lower_bound"]) == ("0", "0")

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_pure_state_prints_the_monotone(self, capsys, tmp_path, monkeypatch, n):
        # a pure-state file is read as rank one, with no projector formed
        path = tmp_path / "pure.state"
        save_state(path, random_state(2 ** n, "pure", seed=n, subsystem_dims=(2,) * n))

        def projector(self):
            raise AssertionError("projector formed")

        monkeypatch.setattr(PureState, "projector", projector)
        values = []
        for argv in (("monotone", "coherence"), ("convexroof", "--theory", "coherence")):
            code, out, err = run(capsys, *argv, "--state", str(path), "--format", "structured")
            assert code == 0, err
            values.append(parse_structured(out)["value"])
        assert values[0] == values[1]

    @pytest.mark.parametrize("flags", [
        ("--restarts", "0"),
        ("--restarts", "-3"),
        ("--cardinality", "0"),
        ("--tolerance", "-1", "--restarts", "1"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--max-iterations", "0"),
        ("--seed", "-1"),
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, bell_state, flags):
        # each of these once ended in a traceback, or in a "converged" value
        # that the optimizer never computed (a negative tolerance); the
        # iteration cap is no longer a flag, and argparse rejects it
        path = tmp_path / "ginibre.state"
        save_state(path, random_state(4, "mixed", seed=5, subsystem_dims=(2, 2)))
        code, out, err = run(capsys, "convexroof", "--state", str(path),
                             "--theory", "entangle", *flags)
        assert code == 2
        assert out == ""
        if flags[0] == "--max-iterations":
            assert err.startswith("usage: statetexture ")
            assert err.endswith("statetexture: error: unrecognized arguments: --max-iterations 0\n")
        else:
            assert err.startswith("usage error:")


class TestNearlyUnitPureState:
    # a norm within NORM_TOL (1e-12) of 1 gave a raw projector whose trace
    # was up to 2e-12 from 1, beyond TRACE_TOL, so these commands exited 1
    @pytest.mark.parametrize("scale", [1 + 0.9e-12, 1 - 0.9e-12], ids=["above", "below"])
    @pytest.mark.parametrize("argv", [
        ["texture"],
        ["texture", "extrema"],
        ["purity"],
        ["convexroof", "--theory", "coherence", "--restarts", "1", "--cardinality", "2"],
    ], ids=["texture", "extrema", "purity", "convexroof"])
    def test_command_accepts_the_state(self, capsys, tmp_path, scale, argv):
        path = tmp_path / "near.state"
        save_state(path, PureState(np.array([1.0, 1.0]) / math.sqrt(2.0) * scale))
        code, out, err = run(capsys, *argv, "--state", str(path), "--format", "structured")
        assert code == 0, err
        assert "nan" not in out


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

    def test_emit_plot_without_out_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # the CSV went to stdout and the script opened scan.csv, a file
        # nothing wrote, with exit 0; now rejected before anything is computed
        def computed(*args, **kwargs):
            raise AssertionError("the scan was computed")

        monkeypatch.setattr(ising, "scan", computed)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ising", "scan", "--n", "16", "--axis", "h",
                             "--from", "0.5", "--to", "1.5", "--step", "0.25",
                             "--emit-plot", "plot.py")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --emit-plot needs --out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("observable", ["full", "pair"])
    def test_point_huge_field_is_finite(self, capsys, observable):
        # no overflow on the way: a RuntimeWarning becomes an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "ising", "point", "--n", "64", "--h", "1e160",
                                 "--observable", observable, "--format", "structured")
        assert code == 0
        assert err == ""
        fields = parse_structured(out)
        values = [float(v) for k, v in fields.items() if k not in ("method", "observable")]
        assert all(math.isfinite(v) for v in values)
        if observable == "full":
            assert float(fields["rugosity"]) == pytest.approx(64 * math.log(2), rel=1e-11)
        else:
            assert float(fields["pair_rugosity"]) == pytest.approx(math.log(4), rel=1e-11)

    @pytest.mark.parametrize("argv", [
        ("--n", "12", "--h=1", "--g=-1e300", "--method", "ed"),
        ("--n", "8", "--h=1e200", "--g=-1e308", "--method", "ed"),
    ])
    def test_polarized_point_rugosity_is_zero(self, capsys, argv):
        # the all-+x state, exact rugosity 0: its overlap rounded above 1
        # and printed -8.881784197e-16 and -0
        code, out, _ = run(capsys, "ising", "point", *argv, "--format", "structured")
        assert code == 0
        fields = parse_structured(out)
        for key in ("rugosity", "normalized_rugosity"):
            assert not fields[key].startswith("-") and float(fields[key]) < 1e-15

    def test_g_scan_requires_fixed_h(self, capsys):
        code, out, err = run(capsys, "ising", "scan", "--n", "6", "--axis", "g",
                             "--from", "-0.2", "--to", "0.2", "--step", "0.1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--axis", "h", "--from", "0", "--to", "0.2", "--step", "0.05", "--h", "0.7"),
        ("--axis", "g", "--from", "-0.2", "--to", "0.2", "--step", "0.1", "--h", "0.5",
         "--g", "0.3"),
    ])
    def test_fixed_field_of_the_swept_axis_is_usage_error(self, capsys, monkeypatch, argv):
        # the swept axis's own field would be dropped: rejected before anything is computed
        def computed(*args, **kwargs):
            raise AssertionError("the scan was computed")

        monkeypatch.setattr(ising, "scan", computed)
        code, out, err = run(capsys, "ising", "scan", "--n", "8", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")


class TestContract:
    def test_determinism_byte_identical(self, capsys, bell_file):
        _, out1, _ = run(capsys, "texture", "--state", bell_file, "--format", "structured")
        _, out2, _ = run(capsys, "texture", "--state", bell_file, "--format", "structured")
        assert out1 == out2

    @pytest.mark.parametrize("content, message", [
        ("[1, 0]", "state file {} must hold a JSON object"),
        ('{"dims": [2], "kind": "pure"}', "state file {} lacks fields ['im', 're']"),
        ('{"dims": [2], "kind": "qubit", "re": [1, 0], "im": [0, 0]}',
         "state file {}: kind must be 'pure' or 'mixed', got 'qubit'"),
        ('{"dims": [2], "kind": "mixed", "re": [[1, 0]], "im": [[0, 0], [0, 0]]}',
         "state file {}: field 're' must be a 2x2 nested list"),
    ], ids=["not-an-object", "missing-fields", "bad-kind", "mixed-not-square"])
    def test_malformed_state_file_rejected(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.state"
        path.write_text(content)
        code, out, err = run(capsys, "texture", "--state", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(path))
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("monotone", "entangle", "--state", "bell", "--cut", "0:x"), "malformed cut '0:x'"),
        (("convexroof", "--theory", "entangle", "--state", "mixed", "--cut", "0;1"),
         "malformed cut '0;1'"),
        (("purity", "--state", "mixed", "--alpha", "2,x"), "malformed --alpha list '2,x'"),
    ], ids=["cut", "roof-cut", "alpha"])
    def test_malformed_list_is_usage_error(self, capsys, bell_file, mixed_file, argv, message):
        files = {"bell": bell_file, "mixed": mixed_file}
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, want", [
        (("ising", "point", "--n", "8", "--h", "0.5", "--g", "-1e-3"), 0),
        (("ising", "point", "--n", "8", "--h", "-5e-1"), 0),
        (("ising", "scan", "--n", "8", "--axis", "h", "--from", "-1e-1", "--to", "0",
          "--step", "0.02"), 0),
        (("ising", "scan", "--n", "64", "--axis", "h", "--from", "-2", "--to", "0",
          "--step", "0.05", "--kink-window", "-1.2,-0.8"), 0),
        (("purity", "--state", "mixed", "--alpha", "-2"), 2),
        (("purity", "--state", "mixed", "--alpha", "-2,3"), 2),
    ], ids=["g-exponent", "h-exponent", "from-exponent", "kink-window", "alpha", "alpha-list"])
    def test_spaced_negative_value_reads_as_its_equals_form(self, capsys, mixed_file, argv,
                                                            want):
        # argparse takes only tokens such as -1 and -.5 for negative numbers;
        # an exponent or a list is read as the value of its flag all the same
        argv = [mixed_file if arg == "mixed" else arg for arg in argv] + ["--format",
                                                                          "structured"]
        twin = argv[:-4] + [f"{argv[-4]}={argv[-3]}"] + argv[-2:]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *twin)
        assert code == want
        if want == 2:
            assert err.startswith("usage error: alpha must be positive")
        if "--kink-window" in argv:  # the h -> -h image of the critical point
            assert parse_structured(out)["kink_estimate"] == "-0.95"

    def test_missing_value_stays_usage_error(self, capsys):
        code, out, err = run(capsys, "ising", "point", "--n", "8", "--g", "--h", "0.5")
        assert (code, out) == (2, "")
        assert "argument --g: expected one argument" in err

    def test_nothing_written_on_usage_error(self, capsys, tmp_path):
        target = tmp_path / "never.csv"
        code, _, _ = run(capsys, "ising", "scan", "--n", "32", "--axis", "h",
                         "--from", "0.2", "--to", "1.8", "--step", "0.2",
                         "--kink-window", "0.8", "--out", str(target))
        assert code == 2
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--out", "--emit-plot", "--dump-decomposition"])
    @pytest.mark.parametrize("target", ["missing directory", "directory", "another path"])
    def test_unwritable_output_is_usage_error(self, capsys, monkeypatch, tmp_path, bell_file,
                                              flag, target):
        # each once computed everything, then ended in a FileNotFoundError
        # traceback (--emit-plot after printing the CSV); an output naming the
        # --state or another output overwrote that file and exited 0
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr(ising, "scan", computed)
        monkeypatch.setattr(roof, "convex_roof", computed)
        path = str(tmp_path / "nonexistent" / "x" if target == "missing directory" else tmp_path)
        if flag == "--dump-decomposition":
            argv = ["convexroof", "--state", bell_file, "--theory", "entangle"]
            other = bell_file
        else:
            argv = ["ising", "scan", "--n", "8", "--axis", "h", "--from", "0", "--to", "1",
                    "--step", "0.25"]
            other = str(tmp_path / "scan.out")
            if target == "another path":
                argv += ["--emit-plot" if flag == "--out" else "--out", other]
        if target == "another path":  # the same file, spelled differently
            path = os.path.join(os.path.dirname(other), ".", os.path.basename(other))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code, out, err = run(capsys, *argv, flag, path)
        assert (code, out) == (2, "")
        # a clash is reported at the later of the two paths; --emit-plot comes after --out
        named = other if (flag, target) == ("--out", "another path") else path
        assert err.startswith(f"usage error: cannot write {named}")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_scan_csv_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, "ising", "scan", "--n", "32", "--axis", "h",
                             "--from", "0.2", "--to", "1.8", "--step", "0.2",
                             "--kink-window", "0.8,1.2", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_inputs_never_mutated(self, capsys, bell_file):
        before = hashlib.sha256(Path(bell_file).read_bytes()).hexdigest()
        run(capsys, "texture", "--state", bell_file)
        run(capsys, "texture", "extrema", "--state", bell_file)
        after = hashlib.sha256(Path(bell_file).read_bytes()).hexdigest()
        assert before == after

    def test_usage_error_exit_code(self, capsys, bell_file):
        code, out, err = run(capsys, "monotone", "entangle", "--state", bell_file,
                             "--cut", "0:0")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("monotone", "coherence", "--state", "bell", "--cut", "5"),
        ("monotone", "ggm", "--state", "ghz3", "--cut", "5"),
        ("convexroof", "--theory", "coherence", "--state", "bell_mixed", "--cut", "0:1"),
    ])
    def test_cut_for_a_theory_without_cuts_is_usage_error(self, capsys, tmp_path, bell_state,
                                                          ghz3, argv):
        # a cut that the theory would ignore is rejected, not dropped
        states = {"bell": bell_state, "ghz3": ghz3, "bell_mixed": bell_state.projector()}
        for name, state in states.items():
            save_state(tmp_path / name, state)
        argv = [str(tmp_path / arg) if arg in states else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_file_size_checked_before_reading(self, capsys, tmp_path, monkeypatch):
        class Read(Exception):
            pass

        def read_text(*args, **kwargs):
            raise Read

        # a sparse file, grown by truncate without writing its bytes
        path = tmp_path / "huge.state"
        path.touch()
        os.truncate(path, stateio.MAX_FILE_BYTES + 1)
        monkeypatch.setattr(Path, "read_text", read_text)
        code, out, err = run(capsys, "texture", "--state", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: state file {path} holds {stateio.MAX_FILE_BYTES + 1} "
                              f"bytes, more than the {stateio.MAX_FILE_BYTES} a file may hold")
        with pytest.raises(InvalidStateError, match="unitary file .* more than"):
            stateio.load_unitary(path)
        # a file of exactly the limit passes the check and is read
        os.truncate(path, stateio.MAX_FILE_BYTES)
        with pytest.raises(Read):
            load_state(path)

    def test_matrix_dimension_checked_before_conversion(self, capsys, tmp_path, monkeypatch,
                                                        bell_file):
        # full-shaped files of dimension 1025, far below MAX_FILE_BYTES
        d = stateio.MAX_MATRIX_DIM + 1
        zeros = "[" + ",".join(["[" + ",".join("0" * d) + "]"] * d) + "]"
        mixed, unitary = tmp_path / "big.state", tmp_path / "big.unitary"
        mixed.write_text(f'{{"dims": [{d}], "kind": "mixed", "re": {zeros}, "im": {zeros}}}')
        unitary.write_text(f'{{"re": {zeros}, "im": {zeros}}}')
        assert max(mixed.stat().st_size, unitary.stat().st_size) < stateio.MAX_FILE_BYTES // 8

        def matrix(*args):
            raise AssertionError("entries converted")

        monkeypatch.setattr(stateio, "_matrix", matrix)
        for argv, message in [
            (("purity", "--state", str(mixed)),
             f"error: state file {mixed}: a mixed state of dimension {d} exceeds the limit of 1024"),
            (("texture", "--state", bell_file, "--basis", str(unitary)),
             f"error: unitary file {unitary}: a unitary of dimension {d} exceeds the limit of 1024"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith(message) and "Traceback" not in err
        # pure states are not capped
        path = tmp_path / "pure.state"
        save_state(path, random_state(2 * d, "pure", seed=0))
        assert load_state(path).dim == 2 * d

    def test_invalid_state_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.state"
        bad.write_text('{"dims": [2], "kind": "pure", "re": [1.0], "im": [0.0, 0.0]}')
        code, out, err = run(capsys, "texture", "--state", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("texture",), ("monotone", "entangle", "--cut", "0:1,2,3"),
                                      ("monotone", "ggm"), ("convexroof", "--theory", "entangle",
                                                            "--cut", "0:1,2,3")])
    def test_wrapping_dims_product_rejected(self, capsys, tmp_path, argv):
        # (2^32 + 1)(2^32 - 1) = 2^64 - 1, whose square is 1 modulo 2^64, so a
        # product taken modulo 2^64 accepts this file as a 4-party state
        bad = tmp_path / "wrap.state"
        bad.write_text(json.dumps({"dims": [2 ** 32 + 1, 2 ** 32 - 1] * 2, "kind": "pure",
                                   "re": [1], "im": [0]}))
        code, out, err = run(capsys, *argv, "--state", str(bad))
        assert (code, out) == (1, "")
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
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(strat.lists(strat.integers(1, 4), min_size=1, max_size=4),
           strat.integers(0, 2 ** 32 - 1))
    def test_valid_state_file_round_trips_exactly(self, tmp_path_factory, kind, dims, seed):
        # any dims, one-party states and dimension-1 parties included
        dims = tuple(dims)
        state = random_state(math.prod(dims), kind, seed=seed, subsystem_dims=dims)
        root = tmp_path_factory.mktemp("roundtrip")
        first, second = root / "a.state", root / "b.state"
        save_state(first, state)
        loaded = load_state(first)
        save_state(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        data = state.amplitudes if kind == "pure" else state.matrix
        assert np.array_equal(loaded.amplitudes if kind == "pure" else loaded.matrix, data)
        assert loaded.subsystem_dims == dims

    @pytest.mark.parametrize("flag, value", [("--from", "nan"), ("--to", "inf"),
                                             ("--step", "nan"), ("--step", "1e-300"),
                                             ("--from", "1e300")])
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_ising_point_fuzz(self, data):
        # every outcome of `ising point` leaves through an exit code and never
        # prints nan, over extreme and non-finite fields and sizes, and every
        # valid chain succeeds (ED only up to 12 sites, where a solve is cheap)
        method = data.draw(strat.sampled_from(["analytic", "ed"]))
        n = 2 * data.draw(strat.integers(-2, 10 ** 6 if method == "analytic" else 6))
        n += data.draw(strat.booleans())
        field = strat.one_of(
            strat.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                                1.7976931348623157e308, 5e-324, -5e-324, 0.0, 1.0]),
            strat.floats())
        h = data.draw(field)
        g = data.draw(field) if data.draw(strat.booleans()) else 0.0
        observable = data.draw(strat.sampled_from(["full", "pair"]))
        argv = ["ising", "point", f"--n={n}", f"--h={h!r}", f"--g={g!r}",
                "--method", method, "--observable", observable]
        code, out, err = run_quietly(argv)
        assert not any(line.split()[1].startswith("-") for line in out.splitlines()
                       if "rugosity" in line), (argv, out)
        limit = MAX_ANALYTIC_SITES if method == "analytic" else MAX_ED_SITES
        valid = (2 <= n <= limit and n % 2 == 0 and math.isfinite(h) and math.isfinite(g)
                 and (method == "ed" or g == 0.0))
        if valid:
            assert code == 0, (argv, err)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_purity_fuzz(self, fuzz_states, data):
        # every --alpha list leaves through an exit code and never prints nan;
        # a list of finite positive orders succeeds, alpha = 1 included
        order = strat.one_of(
            strat.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1", "1.0",
                                "1e308", "5e-324", "0.5", "2", "3", repr(1 + 2 ** -52),
                                repr(1 - 2 ** -53), "1.000000000001", "0.999999999999"]),
            strat.floats().map(repr))
        alphas = data.draw(strat.lists(order, min_size=1, max_size=3))
        state = data.draw(strat.sampled_from(["qubit", "rank2", "pure"]))
        argv = ["purity", "--state", fuzz_states[state], "--alpha", ",".join(alphas)]
        code, out, err = run_quietly(argv)
        # orders near 1 once printed negative purities
        assert not any(line.split()[1].startswith("-") for line in out.splitlines()
                       if line.startswith("renyi_purity")), (argv, out)
        values = [float(a) for a in alphas]
        if all(math.isfinite(a) and a > 0.0 for a in values):
            assert code == 0, (argv, err)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_convexroof_fuzz(self, fuzz_states, data):
        # optimizer settings at and past their limits leave through an exit
        # code and never print nan, and valid ones succeed
        theory, state, dim, rank = data.draw(strat.sampled_from(
            [("entangle", "rank2", 4, 2), ("coherence", "qubit", 2, 2), ("magic", "qubit", 2, 2),
             ("ggm", "ghz3", 8, 1)]))
        seed = data.draw(strat.sampled_from([-1, 0, 2 ** 64]))
        tolerance = data.draw(strat.sampled_from(
            [math.nan, math.inf, -1.0, 0.0, 5e-324, 1e308, 1e-6]))
        restarts = data.draw(strat.integers(-1, 3))
        cardinality = data.draw(strat.one_of(strat.none(), strat.integers(-1, 8),
                                             strat.just(10 ** 8)))
        argv = ["convexroof", "--state", fuzz_states[state], "--theory", theory,
                "--seed", str(seed), "--tolerance", repr(tolerance), "--restarts", str(restarts)]
        if cardinality is not None:
            argv += ["--cardinality", str(cardinality)]
        code, _, err = run_quietly(argv)
        valid = (seed >= 0 and 0.0 <= tolerance < math.inf and restarts >= 1
                 and (cardinality is None or rank <= cardinality <= 2 * dim * rank))
        if valid:
            assert code == 0, (argv, err)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_texture_fuzz(self, fuzz_states, data):
        # every --basis leaves through an exit code and never prints nan: a
        # unitary file with a non-finite entry is a bad file, one of another
        # dimension a usage error, and an untouched one succeeds
        state, dim = data.draw(strat.sampled_from(
            [("qubit", 2), ("rank2", 4), ("pure", 4), ("ghz3", 8)]))
        basis = data.draw(strat.sampled_from(["computational", "fourier", "file"]))
        size = data.draw(strat.sampled_from([2, 4, 8]))
        entry = data.draw(strat.one_of(
            strat.none(),
            strat.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1.0]),
            strat.floats()))
        if basis == "file":
            k = np.arange(size)
            u = np.exp(2j * np.pi * np.outer(k, k) / size) / math.sqrt(size)
            doc = {"re": u.real.tolist(), "im": u.imag.tolist()}
            if entry is not None:
                part = data.draw(strat.sampled_from(["re", "im"]))
                i, j = (data.draw(strat.integers(0, size - 1)) for _ in range(2))
                doc[part][i][j] = entry
            basis = Path(fuzz_states["pure"]).parent / "basis.json"
            basis.write_text(json.dumps(doc))
        else:
            size, entry = dim, None
        code, _, err = run_quietly(["texture", "--state", fuzz_states[state],
                                    "--basis", str(basis)])
        if entry is not None and not math.isfinite(entry):
            assert code == 1, err
        elif size != dim:
            assert code == 2, err
        elif entry is None:
            assert code == 0, err

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(strat.data())
    def test_ising_scan_fuzz(self, fuzz_states, data):
        # every outcome of `ising scan` leaves through an exit code and never
        # prints nan; an unwritable --out or --emit-plot, or --emit-plot
        # without --out, is a usage error that prints and writes nothing, and
        # a valid scan succeeds
        root = Path(fuzz_states["pure"]).parent
        targets = {"fresh": None, "missing": root / "missing" / "x", "directory": root}
        # at most one part is corrupted, so each bad part meets otherwise valid scans
        bad = data.draw(strat.sampled_from([None, "n", "grid", "field", "path"]))
        n = data.draw(strat.sampled_from([-2, 3, 10 ** 6 + 2] if bad == "n" else [8, 64]))
        axis = data.draw(strat.sampled_from(["h", "g"]))
        method = data.draw(strat.sampled_from([None, "analytic", "ed"]))
        observable = data.draw(strat.sampled_from(["full", "pair"]))
        odd = strat.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.1, 1e-300])
        start, stop, step = data.draw(strat.tuples(odd, odd, odd) if bad == "grid" else
                                      strat.sampled_from([(0.0, 1.0, 0.25), (-1.0, 2.0, 0.5)]))
        field = data.draw(strat.sampled_from(
            [1e308, math.nan, -math.inf] if bad == "field" else [None, 0.0, 0.5]))
        argv = ["ising", "scan", f"--n={n}", "--axis", axis, f"--from={start!r}",
                f"--to={stop!r}", f"--step={step!r}", "--observable", observable]
        if method is not None:
            argv += ["--method", method]
        if field is not None:
            argv.append(f"--{'g' if axis == 'h' else 'h'}={field!r}")
        paths, flags = {}, set()
        for flag, name in (("--out", "scan.csv"), ("--emit-plot", "plot.py")):
            kind = data.draw(strat.sampled_from(
                [None, "fresh"] + (["missing", "directory"] if bad == "path" else [])))
            if kind is not None:
                flags.add(flag)
                paths[kind] = path = targets[kind] or root / name
                argv += [flag, str(path)]
                if kind == "fresh" and path.exists():
                    path.unlink()
        code, out, err = run_quietly(argv)
        # a plot script needs the CSV file that --out names
        if "missing" in paths or "directory" in paths or flags == {"--emit-plot"}:
            assert (code, out) == (2, ""), (argv, err)
            assert "fresh" not in paths or not paths["fresh"].exists()
            return
        g = field or 0.0 if axis == "h" else 0.0
        resolved = method or ("ed" if axis == "g" or g != 0.0 else "analytic")
        fixed = math.isfinite(g) if axis == "h" else field is not None and math.isfinite(field)
        grid = (math.isfinite(start) and math.isfinite(stop) and step > 0
                and 4 <= (stop - start) / step < MAX_SCAN_POINTS - 1)
        if grid and fixed and (resolved == "ed" and n == 8 or resolved == "analytic"
                               and n in (8, 64) and axis == "h" and g == 0.0):
            assert code == 0, (argv, err)

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "texture", "--state", str(tmp_path / "nope.state"))
        assert code == 1

    def test_unknown_flag_rejected(self, capsys, bell_file):
        code, _, _ = run(capsys, "texture", "--state", bell_file, "--frobnicate")
        assert code == 2


def _shifted(f):
    return lambda spec: f(spec) + 1e-6


def _shifted_c_xx(f):
    return lambda spec: dataclasses.replace(f(spec), c_xx=f(spec).c_xx + 1e-6)


def _other_qubit(f):
    return lambda rho: f(DensityMatrix(np.diag([0.6, 0.4]).astype(complex)))


def _bound_violated(f):
    return lambda rho: dataclasses.replace(f(rho), bound_satisfied=False)


class TestSelftest:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selftest")
        code2, out2, _ = run(capsys, "selftest")
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 5 and lines[-1] == "4/4 checks passed"
        assert all(line.startswith("PASS  ") for line in lines[:-1])

    @pytest.mark.parametrize("module, name, corrupt, check, message", [
        (purity, "spectral_decompose", _other_qubit,
         "purity: Renyi values and qubit bound equality", ""),
        (purity, "check_renyi2_bound", _bound_violated,
         "purity: Renyi values and qubit bound equality", "Renyi-2 bound violated on a qubit state"),
        (ising, "analytic_rugosity", _shifted, "ising: analytic vs ED at N=8", ""),
        (ising, "pair_observables", _shifted_c_xx, "ising: pair forms agree at N=8", ""),
        (ising, "dispersion_ground_energy", _shifted,
         "ising: ED energy vs dispersion sum at N=8", ""),
    ], ids=["purity.spectral_decompose", "purity.check_renyi2_bound", "ising.analytic_rugosity",
            "ising.pair_observables", "ising.dispersion_ground_energy"])
    def test_detects_corruption(self, monkeypatch, capsys, module, name, corrupt, check, message):
        # a wrong number on one check's path fails that check and only it;
        # where the check has a message of its own, the line ends with it
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith(f"FAIL  {check}: {message}")
        assert not message or fails[0] == f"FAIL  {check}: {message}"
        assert out.splitlines()[-1] == "3/4 checks passed"
