"""Quantum state texture: measures, monotones and Ising criticality scans."""

from .errors import (ConvergenceError, InvalidStateError, ResourceLimitError,
                     StateTextureError, UsageError)
from .states import (DensityMatrix, PureState, SchmidtData, Spectrum,
                     partial_trace, random_state, schmidt_decompose,
                     spectral_decompose)
from .texture import (OrthonormalBasis, TextureExtrema, TextureReport,
                      computational_basis, fourier_basis, rugosity_pure,
                      texture_extrema, texture_in_basis, texture_less_state)
from .purity import (PurityReport, check_renyi2_bound, renyi_purity,
                     single_shot_cost, texture_purity)
from .monotones import (MonotoneResult, coherence_monotone, concurrence_two_qubit,
                        entanglement_monotone, gme_monotone,
                        nonstabilizerness_monotone, pure_state_monotone,
                        sampled_local_texture_bound, single_qubit_clifford_group)
from .roof import ConvexRoofResult, RoofConfig, convex_roof
from .ising import (ChainSpec, EDGroundState, MomentumMode, PairObservables,
                    ScanGrid, analytic_rugosity, bogoliubov_modes,
                    dispersion_ground_energy, ed_ground, ed_ground_state,
                    ed_pair_observables, ed_rugosity, pair_observables,
                    reduced_pair_state, scan)
from .stateio import load_state, load_unitary, save_decomposition, save_state

__version__ = "0.1.0"

__all__ = [
    "ChainSpec", "ConvexRoofResult", "ConvergenceError", "DensityMatrix",
    "EDGroundState", "InvalidStateError", "MomentumMode", "MonotoneResult",
    "OrthonormalBasis", "PairObservables", "PureState", "PurityReport",
    "ResourceLimitError", "RoofConfig", "ScanGrid", "SchmidtData", "Spectrum",
    "StateTextureError", "TextureExtrema", "TextureReport", "UsageError",
    "analytic_rugosity", "bogoliubov_modes", "check_renyi2_bound",
    "coherence_monotone", "computational_basis", "concurrence_two_qubit",
    "convex_roof", "dispersion_ground_energy", "ed_ground", "ed_ground_state",
    "ed_pair_observables", "ed_rugosity", "entanglement_monotone",
    "fourier_basis", "gme_monotone", "load_state", "load_unitary",
    "nonstabilizerness_monotone", "pair_observables", "partial_trace",
    "pure_state_monotone", "random_state", "reduced_pair_state", "renyi_purity",
    "rugosity_pure", "sampled_local_texture_bound", "save_decomposition",
    "save_state", "scan", "schmidt_decompose", "single_qubit_clifford_group",
    "single_shot_cost", "spectral_decompose", "texture_extrema",
    "texture_in_basis", "texture_less_state", "texture_purity",
]
