"""System parameters and the effective two-cavity Hamiltonian.

All rates are dimensionless, in units of the mechanical frequency
(omega_m = 1 internally).  The effective Hamiltonian per cavity j is

    -delta * n_j - mu * n_j**2
    + i*lambda_gain * (adag_j)**2 * exp(i*theta)
    - i*lambda_gain * (a_j)**2   * exp(-i*theta)

with a coherent drive E*exp(i*phi)*adag_1 + h.c. on cavity 1 only and
photon hopping J*(adag_1 a_2 + adag_2 a_1).  The Kerr strength is
mu = g_om**2 (optomechanical coupling squared, omega_m units), inherited
from the radiation-pressure interaction after decoupling the mechanics.

Sign convention note: the published dip locations and optimal-pair tables
for this system use the opposite sign of delta relative to the Hamiltonian
above (figure axes are flipped).  Everything in this module and the
solvers uses the Hamiltonian convention; the sweep/optimizer layers apply
the reporting flip explicitly where documented.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import FockBasis, is_hermitian, two_mode_ops

# 2*pi * 75 MHz, the mechanical frequency used for Hz <-> omega_m conversion.
OMEGA_M_HZ_DEFAULT = 2.0 * math.pi * 75.0e6

_PARAM_KEYS = ("delta", "lambda_gain", "theta", "phi", "hop_J", "kappa",
               "drive_E", "g_om")
# the rates that the stacked solvers take as arrays, one value per point
STACKED_FIELDS = ("delta", "lambda_gain", "hop_J", "g_om")


@dataclass(frozen=True)
class SystemParams:
    """All model rates in units of omega_m; identical-cavity assumption.

    A single delta / lambda_gain / kappa / g_om serves both cavities.  The
    asymmetric generalization (per-cavity rates) is deliberately not
    parameterized; all published results use identical cavities.
    """

    delta: float = 0.0
    lambda_gain: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    hop_J: float = 0.0
    kappa: float = 0.002
    drive_E: float = 4.0e-5
    g_om: float = 0.0

    def __post_init__(self):
        for key in _PARAM_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ValueError("%s must be finite" % key)
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.drive_E < 0:
            raise ValueError("drive_E must be >= 0")
        if self.g_om < 0:
            raise ValueError("g_om must be >= 0")

    @property
    def mu(self) -> float:
        """Kerr strength g_om**2 / omega_m, with omega_m = 1."""
        return self.g_om ** 2

    def replace(self, **kw) -> "SystemParams":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _PARAM_KEYS}
        d["mu"] = self.mu
        return d


def weak_params(**overrides) -> SystemParams:
    """Weak-coupling working point: J = 0.95*kappa, g = 0.042 omega_m."""
    p = SystemParams(kappa=0.002, hop_J=0.95 * 0.002, drive_E=0.02 * 0.002,
                     g_om=0.042)
    return p.replace(**overrides) if overrides else p


def strong_params(**overrides) -> SystemParams:
    """Strong-coupling working point: J = 8*kappa, g = 0.2 omega_m."""
    p = SystemParams(kappa=0.002, hop_J=8 * 0.002, drive_E=0.02 * 0.002,
                     g_om=0.2)
    return p.replace(**overrides) if overrides else p


def cpb_detunings(p: SystemParams) -> tuple[float, float]:
    """Conventional-blockade dip locations (mu + J, mu - J).

    Values are on the reporting axis (flipped sign relative to the internal
    Hamiltonian convention, where the single-excitation resonances sit at
    delta = -(mu +/- J)).
    """
    return (p.mu + p.hop_J, p.mu - p.hop_J)


def effective_hamiltonian(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Hermitian effective Hamiltonian on the truncated two-mode space."""
    return _hamiltonian(p, *two_mode_ops(basis))[0]


def non_hermitian_hamiltonian(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Effective Hamiltonian with -i*kappa/2 * (n1 + n2) decay terms."""
    return _non_hermitian(p, *two_mode_ops(basis))[0]


def stacked_rates(p: SystemParams, arrays: dict) -> list[np.ndarray]:
    """The rates in STACKED_FIELDS as 1-D arrays broadcast together; those
    that ``arrays`` gives override p's.  Nothing else can be stacked."""
    unknown = set(arrays) - set(STACKED_FIELDS)
    if unknown:
        raise ValueError("cannot stack %s" % sorted(unknown))
    return np.broadcast_arrays(*(
        np.ravel(np.asarray(arrays.get(f, getattr(p, f)), dtype=float))
        for f in STACKED_FIELDS))


def _hamiltonian(p: SystemParams, a1: np.ndarray, a2: np.ndarray, **arrays
                 ) -> np.ndarray:
    """``effective_hamiltonian`` from ladder operators the caller built, one
    per point of ``stacked_rates(p, arrays)``: shape (N, d, d).

    A rate given as an array enters with shape (N, 1, 1), the others as p's
    floats; each entry rounds as it does with all rates set in p.
    """
    n_points = len(stacked_rates(p, arrays)[0]) if arrays else 1
    delta, lam, hop, g = (
        np.asarray(arrays[f], dtype=float).reshape(-1, 1, 1) if f in arrays
        else getattr(p, f) for f in STACKED_FIELDS)
    mu = np.float_power(g, 2)       # pow(), as SystemParams.mu rounds g**2
    h = np.zeros((n_points,) + a1.shape, dtype=complex)
    opa_phase = np.exp(1j * p.theta)
    pair_up = 1j * lam * opa_phase
    pair_down = -1j * lam * np.conj(opa_phase)
    for a in (a1, a2):
        n = a.conj().T @ a
        h += -delta * n - mu * (n @ n)
        h += pair_up * (a.conj().T @ a.conj().T)
        h += pair_down * (a @ a)
    h += p.drive_E * np.exp(1j * p.phi) * a1.conj().T
    h += p.drive_E * np.exp(-1j * p.phi) * a1
    h += hop * (a1.conj().T @ a2 + a2.conj().T @ a1)
    if not is_hermitian(h):
        raise ValueError("effective Hamiltonian failed the Hermiticity check")
    return h


def _non_hermitian(p: SystemParams, a1: np.ndarray, a2: np.ndarray, **arrays
                   ) -> np.ndarray:
    """``non_hermitian_hamiltonian`` as ``_hamiltonian`` stacks it."""
    n_tot = a1.conj().T @ a1 + a2.conj().T @ a2
    return _hamiltonian(p, a1, a2, **arrays) - 0.5j * p.kappa * n_tot


def params_from_dict(d: dict, omega_m_hz: float = OMEGA_M_HZ_DEFAULT
                     ) -> SystemParams:
    """Build SystemParams from a flat mapping.

    Keys are the SystemParams field names with values in omega_m units;
    a sibling key with an `_hz` suffix is accepted instead (not as well) and
    divided by omega_m_hz (both in the same angular-frequency convention).
    """
    if not 0 < omega_m_hz < math.inf:
        raise ValueError("omega_m_hz must be in (0, inf), got %r" % omega_m_hz)
    kw = {}
    for key in _PARAM_KEYS:
        if key in d and key + "_hz" in d:
            raise ValueError("give %s or %s_hz, not both" % (key, key))
        if key in d:
            kw[key] = _number(d, key)
        elif key + "_hz" in d:
            kw[key] = _number(d, key + "_hz") / omega_m_hz
    unknown = set(d) - {k for k in _PARAM_KEYS} - {k + "_hz" for k in _PARAM_KEYS} \
        - {"omega_m_hz"}
    if unknown:
        raise ValueError("unknown parameter keys: %s" % sorted(unknown))
    return SystemParams(**kw)


def _number(d: dict, key: str) -> float:
    """d[key] as a float; a JSON null, list or object raises ValueError."""
    try:
        return float(d[key])
    except (TypeError, ValueError):
        raise ValueError("%s must be a number, got %r"
                         % (key, d[key])) from None


def load_params(path) -> SystemParams:
    """Load SystemParams from a flat JSON file (see params_from_dict)."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("%s: expected a JSON object" % path)
    omega_m_hz = _number(d, "omega_m_hz") if "omega_m_hz" in d \
        else OMEGA_M_HZ_DEFAULT
    return params_from_dict(d, omega_m_hz=omega_m_hz)
