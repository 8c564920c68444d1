"""Photon statistics of two tunnel-coupled Kerr cavities with intracavity
parametric gain: g2(0) by the truncated-amplitude and master-equation
methods, plus optimal-antibunching parameter search."""

__version__ = "0.1.0"

from .fock import FockBasis, annihilation, two_mode_ops
from .model import (SystemParams, cpb_detunings, effective_hamiltonian,
                    non_hermitian_hamiltonian, strong_params, weak_params)
from .amplitude import (AmplitudeState, analytic_coefficients,
                        g2_from_amplitudes, steady_amplitudes)
from .lindblad import (g2_from_rho, liouvillian, steady_g2, steady_rho,
                       steady_rho_stack, steady_state, evolve)
from .optimize import (OptimalPair, SearchGrid, find_optimal_pairs,
                       target_residual)
from .sweep import SweepSpec, figure_dataset, run_sweep

__all__ = [
    "FockBasis", "annihilation", "two_mode_ops",
    "SystemParams", "weak_params", "strong_params", "cpb_detunings",
    "effective_hamiltonian", "non_hermitian_hamiltonian",
    "AmplitudeState", "steady_amplitudes", "analytic_coefficients",
    "g2_from_amplitudes",
    "liouvillian", "steady_state", "steady_rho", "steady_rho_stack", "evolve",
    "g2_from_rho", "steady_g2",
    "OptimalPair", "SearchGrid", "find_optimal_pairs", "target_residual",
    "SweepSpec", "run_sweep", "figure_dataset",
]
