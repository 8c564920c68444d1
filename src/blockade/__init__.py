"""Photon statistics of two tunnel-coupled Kerr cavities with intracavity
parametric gain: g2(0) by the truncated-amplitude and master-equation
methods, plus optimal-antibunching parameter search.

A submodule loads the first time one of its public names (or the submodule
itself) is looked up on the package (PEP 562), so ``from blockade import
steady_amplitudes`` loads fock, model and amplitude only.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "fock": ("FockBasis", "annihilation", "two_mode_ops"),
    "model": ("SystemParams", "weak_params", "strong_params", "cpb_detunings",
              "effective_hamiltonian", "non_hermitian_hamiltonian"),
    "amplitude": ("AmplitudeState", "steady_amplitudes",
                  "analytic_coefficients", "g2_from_amplitudes"),
    "lindblad": ("steady_rho", "steady_rho_stack", "g2_from_rho",
                 "steady_g2"),
    "optimize": ("OptimalPair", "SearchGrid", "find_optimal_pairs",
                 "target_residual"),
    "sweep": ("SweepSpec", "run_sweep", "figure_dataset"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Load the submodule that defines ``name``; keep the name here."""
    if name in _EXPORTS:        # importing sets the package attribute
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
