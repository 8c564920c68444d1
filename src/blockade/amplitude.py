"""Steady-state amplitudes in the two-excitation subspace and g2(0).

Two routes are provided:

* ``steady_amplitude_stack`` -- the ground-truth path.  The builder of
  the master equation's Hamiltonian, ``model.hamiltonian_stack``, writes
  it on the six n1+n2 <= 2 states for arrays of rates, and the
  weak-driving hierarchy of all points is solved at once (c00 = 1, then
  the 2x2 one-photon block, then the 3x3 two-photon block).
  ``steady_amplitudes`` is its one-point case.

* ``analytic_coefficients`` -- the published closed forms, transcribed as
  printed but for one sign in c11 (+E^2 Gamma; the printed -E^2 Gamma does
  not solve the hierarchy).  These closed forms use the opposite detuning
  sign (their Lambda = delta + i*kappa/2 - mu, versus the block diagonal
  -(delta + mu) - i*kappa/2), so the solve path at -delta reproduces each
  amplitude c_{n1 n2} as (-1)**n1 * conj(c_printed(delta)).  Magnitudes
  agree under that delta reflection.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .model import SystemParams, hamiltonian_stack, ladder_table
# not called here; perfbench's tracer wraps it here by name
from .model import non_hermitian_hamiltonian  # noqa: F401

# the n1 + n2 <= 2 states, in the order of AmplitudeState's fields
_TABLE = ladder_table(((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)))


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


def steady_amplitude_stack(p: SystemParams, **arrays) -> np.ndarray:
    """Weak-driving hierarchy of H_nh on the n1 + n2 <= 2 states, one block
    per point of ``model.stacked_rates(p, arrays)``.

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
        # the warning names the innermost caller outside this package
        level, frame = 2, sys._getframe(1)
        while frame.f_globals.get("__package__") == __package__:
            level, frame = level + 1, frame.f_back
        warnings.warn("drive_E > 0.1*kappa: outside the weak-driving window, "
                      "amplitude hierarchy may be inaccurate",
                      WeakDrivingWarning, stacklevel=level)
    h = hamiltonian_stack(p, _TABLE, **arrays)
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
    """Published closed-form steady amplitudes.

    Valid only for theta = phi = 0.  Kept as printed, including their
    detuning-sign convention, but for the sign of c11's first term; see the
    module docstring for how they relate to ``steady_amplitudes``.
    """
    if p.theta != 0.0 or p.phi != 0.0:
        raise ValueError("analytic_coefficients requires theta = phi = 0")
    lam, gam = lambda_gamma(p)
    e, j, lam_g = p.drive_E, p.hop_J, p.lambda_gain

    d1 = lam ** 2 - j ** 2
    d2 = gam * lam - j ** 2

    c01 = j * e / d1
    c10 = lam * e / d1
    # printed with -e**2*gam, a sign misprint: +e**2*gam solves the hierarchy
    c11 = j * (e ** 2 * gam - 2j * j ** 2 * lam_g + e ** 2 * lam
               + 2j * lam_g * lam ** 2) / (2 * d2 * d1)
    c02 = (j ** 2 * e ** 2 * gam + j ** 2 * e ** 2 * lam
           - 2j * j ** 2 * lam_g * gam * lam
           + 2j * lam_g * gam * lam ** 3) / (2 * np.sqrt(2) * gam * d2 * d1)
    c20 = (j ** 2 * e ** 2 * gam - j ** 2 * e ** 2 * lam
           - 2j * j ** 2 * lam_g * gam * lam + 2 * e ** 2 * gam * lam ** 2
           + 2j * lam_g * gam * lam ** 3) / (2 * np.sqrt(2) * gam * d2 * d1)
    return AmplitudeState(c00=1.0 + 0.0j, c01=c01, c10=c10,
                          c11=c11, c02=c02, c20=c20)


def g2_cavity_stack(c: np.ndarray, cavity: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(g2, undefined) of one cavity at each row of an (N, 6) amplitude stack.

    Uses the weak-driving occupation approximation n_1 ~ |c10|**2,
    n_2 ~ |c01|**2; g2 is undefined where that amplitude is zero, and inf or
    nan, without a warning, where a power overflows.  hypot and
    pow() round as abs(complex) and float ** do, np.abs and ** not always.
    """
    if cavity not in (1, 2):
        raise ValueError("cavity must be 1 or 2")
    two, one = (c[:, 5], c[:, 2]) if cavity == 1 else (c[:, 4], c[:, 1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (2.0 * np.float_power(np.hypot(two.real, two.imag), 2)
                / np.float_power(np.hypot(one.real, one.imag), 4), one == 0)


def g2_cavity(s: AmplitudeState, cavity: int) -> float:
    """g2(0) of one cavity; see ``g2_cavity_stack``."""
    g2, undefined = g2_cavity_stack(np.array([astuple(s)]), cavity)
    if undefined[0]:
        raise UndefinedCorrelationError(
            "cavity %d: one-photon amplitude is 0 at these rates (it "
            "vanishes, or underflows below the smallest float)" % cavity)
    return float(g2[0])


def g2_from_amplitudes(s: AmplitudeState) -> tuple[float, float]:
    """(g2_1, g2_2) = (2|c20|^2/|c10|^4, 2|c02|^2/|c01|^4)."""
    return g2_cavity(s, 1), g2_cavity(s, 2)
