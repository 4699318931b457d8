"""Quantum state texture: measures, monotones and Ising criticality scans.

Public names resolve on first use (PEP 562), each loading only its own module.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "errors": "ConvergenceError InvalidStateError ResourceLimitError StateTextureError UsageError",
    "states": "DensityMatrix PureState SchmidtData Spectrum partial_trace random_state "
              "schmidt_decompose spectral_decompose",
    "texture": "OrthonormalBasis TextureExtrema TextureReport computational_basis fourier_basis "
               "rugosity_pure texture_extrema texture_in_basis",
    "purity": "PurityReport check_renyi2_bound renyi_purity single_shot_cost texture_purity",
    "monotones": "MonotoneResult coherence_monotone concurrence_two_qubit entanglement_monotone "
                 "gme_monotone nonstabilizerness_monotone pure_state_monotone",
    "roof": "ConvexRoofResult RoofConfig convex_roof",
    "ising": "ChainSpec EDGroundState PairObservables ScanGrid analytic_rugosity "
             "dispersion_ground_energy ed_ground ed_pair_observables ed_rugosity "
             "pair_observables scan",
    "stateio": "load_state load_unitary save_decomposition save_state",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module behind a public name or submodule on first use."""
    if name in _NAMES:  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
