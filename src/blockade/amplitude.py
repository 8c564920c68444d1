"""Steady-state amplitudes in the two-excitation subspace and g2(0).

Two routes are provided:

* ``steady_amplitude_stack`` -- the ground-truth path.  It writes the
  non-Hermitian Hamiltonian on the n1+n2 <= 2 subspace straight from its
  matrix elements (``subspace_block``; nothing is projected from a Fock
  space) for arrays of rates, and solves the weak-driving hierarchy of all
  points at once (c00 = 1, then the 2x2 one-photon block, then the 3x3
  two-photon block).  ``steady_amplitudes`` is its one-point case.

* ``analytic_coefficients`` -- the published closed forms, kept verbatim
  for comparison.  These closed forms use the opposite detuning sign
  (their Lambda = delta + i*kappa/2 - mu, versus the block diagonal
  -(delta + mu) - i*kappa/2), so they reproduce the solve path evaluated
  at -delta, up to complex conjugation and an alternating sign on the
  one-photon amplitudes.  Magnitudes agree under that delta reflection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# non_hermitian_hamiltonian is the reference for subspace_block; perfbench's
# tracer also wraps it here by name.
from .model import (SystemParams, non_hermitian_hamiltonian,  # noqa: F401
                    stacked_rates)

_SQRT2 = np.sqrt(2.0)
# Occupation 2 as the Fock-space build rounds it: sqrt(2)*sqrt(2), not 2.
_TWO = _SQRT2 * _SQRT2
_OCCUPATION = np.array([0.0, 1.0, 1.0, 1.0 + 1.0, _TWO, _TWO])


class UndefinedCorrelationError(ZeroDivisionError):
    """g2(0) requested for a mode with vanishing one-photon amplitude."""


class WeakDrivingWarning(UserWarning):
    """Drive outside the recommended weak-driving window (E <= 0.1*kappa)."""


@dataclass(frozen=True)
class AmplitudeState:
    """Complex amplitudes of |00>, |01>, |10>, |11>, |02>, |20>."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex
    c02: complex
    c20: complex


def lambda_gamma(p: SystemParams) -> tuple[complex, complex]:
    """Published one- and two-photon denominators (Lambda, Gamma).

    Lambda = delta + i*kappa/2 - mu, Gamma = delta + i*kappa/2 - 2*mu.
    """
    base = p.delta + 0.5j * p.kappa
    return base - p.mu, base - 2 * p.mu


def subspace_block(p: SystemParams, **arrays) -> np.ndarray:
    """Non-Hermitian Hamiltonian on the two-excitation subspace, shape
    (N, 6, 6), in the order of AmplitudeState's fields (|00> to |20>).

    Rates in ``model.STACKED_FIELDS`` given as arrays broadcast together and
    override p's.  The entries round as those of ``non_hermitian_hamiltonian``
    on FockBasis(2, 2) do, so the block equals that projection bit for bit.
    """
    delta, lam, hop, g = stacked_rates(p, arrays)
    mu = np.float_power(g, 2)       # pow(), as SystemParams.mu rounds g**2
    one, two = -delta - mu, -delta * _TWO - mu * (_TWO * _TWO)  # per mode
    h = np.zeros(delta.shape + (6, 6), dtype=complex)
    diag = h.reshape(-1, 36)[:, ::7]            # a view of the diagonals
    diag.real[:, 1:] = np.array([one, one, one + one, two, two]).T
    diag.imag = -0.5 * p.kappa * _OCCUPATION
    up = p.drive_E * np.exp(1j * p.phi)
    down = p.drive_E * np.exp(-1j * p.phi)
    phase = np.exp(1j * p.theta)
    pair_up = 1j * lam * phase * _SQRT2
    pair_down = -1j * lam * np.conj(phase) * _SQRT2
    # (upper state, lower state, raising and lowering elements): the drive
    # on cavity 1, the parametric gain, the hopping
    for hi, lo, rise, fall in (
            (2, 0, up, down), (3, 1, up, down),
            (5, 2, up * _SQRT2, down * _SQRT2),
            (4, 0, pair_up, pair_down), (5, 0, pair_up, pair_down),
            (2, 1, hop, hop), (5, 3, hop * _SQRT2, hop * _SQRT2),
            (4, 3, hop * _SQRT2, hop * _SQRT2)):
        h[:, hi, lo], h[:, lo, hi] = rise, fall
    return h


def steady_amplitude_stack(p: SystemParams, **arrays) -> np.ndarray:
    """Weak-driving hierarchy of each block of ``subspace_block(p, **arrays)``.

    c00 is pinned to 1 (no renormalization).  The one-photon 2x2 block is
    solved ignoring two-photon feedback; the two-photon 3x3 block is then
    sourced by the one-photon amplitudes and the direct parametric-gain
    excitation of |02> and |20>.  Returns the (N, 6) amplitudes.  No block
    is singular: each is Hermitian, shifted by -i*kappa/2 per photon, so
    |det| >= (kappa/2)**2 and >= kappa**3 with kappa > 0.
    """
    if p.drive_E <= 0:
        raise ValueError("steady amplitudes require drive_E > 0")
    if p.drive_E > 0.1 * p.kappa:
        warnings.warn("drive_E > 0.1*kappa: outside the weak-driving window, "
                      "amplitude hierarchy may be inaccurate",
                      WeakDrivingWarning, stacklevel=3)
    h = subspace_block(p, **arrays)
    one, two = slice(1, 3), slice(3, 6)     # |01>, |10> and |11>, |02>, |20>
    c = np.ones(h.shape[:2], dtype=complex)
    c[:, one] = np.linalg.solve(h[:, one, one], -h[:, one, 0, None])[..., 0]
    # written out: a stacked matmul rounds unlike the per-point 2-term dot
    src = h[:, two, 0] + (h[:, two, 1] * c[:, 1, None]
                          + h[:, two, 2] * c[:, 2, None])
    c[:, two] = np.linalg.solve(h[:, two, two], -src[..., None])[..., 0]
    return c


def steady_amplitudes(p: SystemParams) -> AmplitudeState:
    """Steady amplitudes at one point; see ``steady_amplitude_stack``."""
    return AmplitudeState(*steady_amplitude_stack(p)[0])


def analytic_coefficients(p: SystemParams) -> AmplitudeState:
    """Published closed-form steady amplitudes, transcribed verbatim.

    Valid only for theta = phi = 0.  Kept as printed, including their
    detuning-sign convention; see the module docstring for how they relate
    to ``steady_amplitudes``.
    """
    if p.theta != 0.0 or p.phi != 0.0:
        raise ValueError("analytic_coefficients requires theta = phi = 0")
    lam, gam = lambda_gamma(p)
    e, j, lam_g = p.drive_E, p.hop_J, p.lambda_gain

    d1 = lam ** 2 - j ** 2
    d2 = gam * lam - j ** 2

    c01 = j * e / d1
    c10 = lam * e / d1
    c11 = j * (-e ** 2 * gam - 2j * j ** 2 * lam_g + e ** 2 * lam
               + 2j * lam_g * lam ** 2) / (2 * d2 * d1)
    c02 = (j ** 2 * e ** 2 * gam + j ** 2 * e ** 2 * lam
           - 2j * j ** 2 * lam_g * gam * lam
           + 2j * lam_g * gam * lam ** 3) / (2 * np.sqrt(2) * gam * d2 * d1)
    c20 = (j ** 2 * e ** 2 * gam - j ** 2 * e ** 2 * lam
           - 2j * j ** 2 * lam_g * gam * lam + 2 * e ** 2 * gam * lam ** 2
           + 2j * lam_g * gam * lam ** 3) / (2 * np.sqrt(2) * gam * d2 * d1)
    return AmplitudeState(c00=1.0 + 0.0j, c01=c01, c10=c10,
                          c11=c11, c02=c02, c20=c20)


def g2_cavity(s: AmplitudeState, cavity: int) -> float:
    """g2(0) of one cavity from the amplitude hierarchy.

    Uses the weak-driving occupation approximation n_1 ~ |c10|**2,
    n_2 ~ |c01|**2.
    """
    if cavity not in (1, 2):
        raise ValueError("cavity must be 1 or 2")
    c_two, c_one = (s.c20, s.c10) if cavity == 1 else (s.c02, s.c01)
    if c_one == 0:
        raise UndefinedCorrelationError("one-photon amplitude is zero")
    return float(2.0 * abs(c_two) ** 2 / abs(c_one) ** 4)


def g2_from_amplitudes(s: AmplitudeState) -> tuple[float, float]:
    """(g2_1, g2_2) = (2|c20|^2/|c10|^4, 2|c02|^2/|c01|^4)."""
    return g2_cavity(s, 1), g2_cavity(s, 2)
