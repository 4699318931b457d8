"""The package namespace, its result types, the modules that each entry point
loads, and the code-line counter."""

import dataclasses
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys

import pytest

import statetexture

PUBLIC_NAMES = [
    "ChainSpec", "ConvergenceError", "ConvexRoofResult", "DensityMatrix",
    "EDGroundState", "InvalidStateError", "MonotoneResult",
    "OrthonormalBasis", "PairObservables", "PureState", "PurityReport",
    "ResourceLimitError", "RoofConfig", "ScanGrid", "SchmidtData", "Spectrum",
    "StateTextureError", "TextureExtrema", "TextureReport", "UsageError",
    "analytic_rugosity", "check_renyi2_bound",
    "coherence_monotone", "computational_basis", "concurrence_two_qubit",
    "convex_roof", "dispersion_ground_energy", "ed_ground", "ed_pair_observables",
    "ed_rugosity", "entanglement_monotone",
    "fourier_basis", "gme_monotone", "load_state", "load_unitary",
    "nonstabilizerness_monotone", "pair_observables", "partial_trace",
    "pure_state_monotone", "random_state", "renyi_purity",
    "rugosity_pure", "save_decomposition",
    "save_state", "scan", "schmidt_decompose",
    "single_shot_cost", "spectral_decompose", "texture_extrema",
    "texture_in_basis", "texture_purity",
]

SUBMODULES = ["errors", "ising", "monotones", "purity", "roof", "stateio", "states", "texture"]

# the fields of each result type: what it computed, none of its caller's inputs
RESULT_FIELDS = {
    "ConvexRoofResult": ["value", "decomposition", "converged", "lower_bound"],
    "EDGroundState": ["state", "energy", "gap", "degenerate"],
    "MonotoneResult": ["value", "witness"],
    "PairObservables": ["m_z", "c_xx", "c_yy", "c_zz"],
    "PurityReport": ["texture_purity", "renyi_purities", "renyi2_bound_rhs", "bound_satisfied",
                     "single_shot_cost"],
    "ScanGrid": ["rugosity", "normalized_rugosity", "first_derivative", "second_derivative",
                 "kink_estimate"],
    "TextureReport": ["grand_sum", "texture", "rugosity", "imag_residual"],
}


def _python(code):
    """Standard output of a fresh interpreter that runs ``code`` on this package."""
    src = os.path.dirname(os.path.dirname(statetexture.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True).stdout


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert sorted(statetexture.__all__) == PUBLIC_NAMES
        assert statetexture.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_defining_modules_object(self, name):
        obj = getattr(statetexture, name)
        module = obj.__module__
        assert module.rpartition(".")[0] == "statetexture"
        assert getattr(importlib.import_module(module), name) is obj

    @pytest.mark.parametrize("name", RESULT_FIELDS)
    def test_result_type_has_its_fields(self, name):
        fields = dataclasses.fields(getattr(statetexture, name))
        assert [field.name for field in fields] == RESULT_FIELDS[name]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from statetexture import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES

    def test_dir_lists_names_and_submodules(self):
        assert set(PUBLIC_NAMES + SUBMODULES) <= set(dir(statetexture))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            statetexture.no_such_name
        assert not hasattr(statetexture, "__wrapped__")

    def test_submodules_resolve_after_a_bare_import(self):
        code = ("import statetexture, sys\n"
                f"print(all(getattr(statetexture, m) is sys.modules['statetexture.' + m]"
                f" for m in {SUBMODULES!r}))\n")
        assert _python(code).strip() == "True"


def _loaded_after(code):
    """The ``statetexture.*`` modules a fresh interpreter holds after ``code``."""
    listing = "\nprint(*sorted(m for m in sys.modules if m.startswith('statetexture.')))"
    return set(_python("import sys\n" + code + listing).splitlines()[-1].split())


class TestImportGraph:
    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        assert _loaded_after("import statetexture\nassert 'numpy' not in sys.modules") == set()

    @pytest.mark.parametrize("argv, used, unused", [
        (["purity", "--state", "{state}"], {"purity", "stateio"},
         {"ising", "roof", "monotones", "texture"}),
        (["ising", "point", "--n", "8", "--h", "0.5"], {"ising"}, {"roof", "monotones", "purity"}),
        (["monotone", "ggm", "--state", "{pure}"], {"monotones", "stateio"},
         {"ising", "roof", "purity", "texture"}),
        (["convexroof", "--state", "{state}", "--theory", "entangle", "--restarts", "1"],
         {"roof", "monotones", "stateio"}, {"ising", "purity", "texture"}),
    ], ids=["purity", "ising-point", "monotone-ggm", "convexroof-entangle"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, used, unused):
        state, pure = tmp_path / "rho.state", tmp_path / "psi.state"
        statetexture.save_state(state, statetexture.random_state(4, "mixed", seed=1,
                                                                 subsystem_dims=(2, 2)))
        statetexture.save_state(pure, statetexture.random_state(8, "pure", seed=1,
                                                                subsystem_dims=(2, 2, 2)))
        argv = [arg.format(state=state, pure=pure) for arg in argv]
        loaded = _loaded_after(f"from statetexture.cli import main\nassert main({argv!r}) == 0")
        assert {f"statetexture.{m}" for m in used} <= loaded
        assert not loaded & {f"statetexture.{m}" for m in unused}

    def test_oracles_load_without_the_package(self):
        # the suite's oracles, those it shares with the benchmark among them,
        # must not compute a value through the code they check
        tests = os.path.dirname(os.path.abspath(__file__))
        code = (f"import sys\nsys.path.insert(0, {tests!r})\nimport oracles\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'statetexture'))")
        assert _python(code).strip() == "[]"


class TestReadme:
    def test_python_example_runs(self):
        # a public name the example uses and the package no longer has fails here
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
            [example] = re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)
        lines = _python(example).splitlines()
        # texture and rugosity, the Werner roof's value and lower bound, the chain's rugosity
        assert [len(line.split()) for line in lines] == [2, 2, 1]
        assert all(math.isfinite(float(token)) for line in lines for token in line.split())


class TestCodeLines:
    def test_counts_neither_blank_comment_nor_docstring_lines(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "code_lines", os.path.join(root, "tools", "code_lines.py"))
        code_lines = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(code_lines)
        module = tmp_path / "sample.py"
        module.write_text('"""Module docstring\n\non three lines."""\n\n'
                          "import os  # a comment after code\n"
                          "# a comment line\n"
                          "class A:\n"
                          '    """Class docstring."""\n'
                          "    def f(self):\n"
                          "        '''Function docstring.'''\n"
                          '        return """a string\n'
                          'on two lines"""\n')
        # import, class, def and the two lines of the returned string
        assert code_lines.count(module) == (5, 12)
