"""Liouvillian construction, steady state, and exact g2(0).

Density matrices are vectorized row-major (numpy ravel order), so
vec(A @ rho @ B) = kron(A, B.T) @ vec(rho).  The Liouvillian is built from
the non-Hermitian Hamiltonian H_nh that the amplitude hierarchy solves,
whose -i*kappa/2 per photon is the loss part of rate-kappa photon decay in
each cavity, plus the jump term of that decay:
L = -i (H_nh (x) 1 - 1 (x) conj(H_nh)) + kappa sum_j a_j (x) conj(a_j).
There is no mechanical dissipator and no thermal occupation.
"""

from __future__ import annotations

import numpy as np

from .fock import FockBasis, two_mode_ops
from .model import SystemParams, non_hermitian_hamiltonian
# not called here; perfbench's tracer wraps it here by name
from .model import effective_hamiltonian  # noqa: F401

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8


class DimensionOverflowError(ValueError):
    """Superoperator dimension above the guard without an explicit override."""


class SingularLiouvillianError(np.linalg.LinAlgError):
    """Trace-constrained steady-state solve failed."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """Liouvillian null space has more than one direction."""


class EmptyModeError(ZeroDivisionError):
    """g2(0) requested for a mode with negligible occupation."""


class UnphysicalStateError(ValueError):
    """Density-matrix invariants (trace/Hermiticity/positivity) violated."""


def check_dimension(basis: FockBasis, allow_large: bool = False) -> None:
    """The dense-superoperator size guard of ``liouvillian``."""
    if basis.dim ** 2 > 10 ** 4 and not allow_large:
        raise DimensionOverflowError("superoperator dimension %d > 1e4; "
                                     "pass allow_large=True" % basis.dim ** 2)


def liouvillian(p: SystemParams, basis: FockBasis,
                allow_large: bool = False) -> np.ndarray:
    """Dense Liouvillian of the dissipative dynamics, shape (d*d, d*d)."""
    check_dimension(basis, allow_large)
    h = non_hermitian_hamiltonian(p, basis)
    eye = np.eye(basis.dim, dtype=complex)
    liouv = np.kron(h, eye)             # in place: one full-size temporary
    liouv -= np.kron(eye, h.conj())
    liouv *= -1j
    for a in two_mode_ops(basis):
        liouv += np.kron(p.kappa * a, a.conj())
    return liouv


def check_density_matrix(rho: np.ndarray, trace_tol: float = TRACE_TOL,
                         herm_tol: float = HERM_TOL,
                         eig_floor: float = EIG_FLOOR) -> None:
    """Raise UnphysicalStateError unless rho is a valid state."""
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise UnphysicalStateError("trace deviates from 1 by %g" % abs(tr - 1.0))
    asym = np.max(np.abs(rho - rho.conj().T))
    if asym > herm_tol:
        raise UnphysicalStateError("Hermiticity violation %g" % asym)
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < eig_floor:
        raise UnphysicalStateError("negative eigenvalue %g" % w.min())


def steady_state(liouv: np.ndarray, check_uniqueness: bool = False
                 ) -> np.ndarray:
    """Steady density matrix from the trace-constrained linear solve.

    One row of L is replaced by the vectorized-trace row with right-hand
    side 1; the solution is Hermitized and validated.  The pre-Hermitization
    asymmetry is available via ``steady_state_with_diagnostics``.
    """
    rho, _ = steady_state_with_diagnostics(liouv, check_uniqueness)
    return rho


def steady_state_with_diagnostics(liouv: np.ndarray,
                                  check_uniqueness: bool = False
                                  ) -> tuple[np.ndarray, dict]:
    d2 = liouv.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError("superoperator dimension is not a perfect square")
    if check_uniqueness:
        ns = np.sum(np.linalg.svd(liouv, compute_uv=False) < 1e-10 * d)
        if ns != 1:
            raise NonUniqueSteadyStateError(
                "Liouvillian null space has dimension %d" % ns)
    m = liouv.copy()
    trace_row = np.zeros(d2, dtype=complex)
    trace_row[::d + 1] = 1.0        # vec indices of diagonal entries
    m[0, :] = trace_row
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    try:
        vec = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularLiouvillianError(str(exc)) from exc
    rho_raw = vec.reshape(d, d)
    asym = float(np.max(np.abs(rho_raw - rho_raw.conj().T)))
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    check_density_matrix(rho)
    residual = float(np.max(np.abs(liouv @ rho.ravel())))
    return rho, {"hermitization_asymmetry": asym, "residual_inf": residual}


def evolve(liouv: np.ndarray, rho0: np.ndarray, t_final: float,
           dt: float) -> np.ndarray:
    """Fixed-step RK4 integration of d(rho)/dt = L rho.

    Aborts when the trace drifts by more than 1e-6, which signals a step
    size past the stability bound (dt <~ 0.1 / ||L||_inf).
    """
    v = rho0.ravel().astype(complex)
    d = rho0.shape[0]
    n_steps = int(np.ceil(t_final / dt))
    step = t_final / n_steps
    for _ in range(n_steps):
        k1 = liouv @ v
        k2 = liouv @ (v + 0.5 * step * k1)
        k3 = liouv @ (v + 0.5 * step * k2)
        k4 = liouv @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.sum(v[::d + 1]) - 1.0)
        if drift > 1e-6:
            raise RuntimeError(
                "trace drift %g exceeds 1e-6; reduce dt (stability bound "
                "dt <= 0.1/||L||_inf)" % drift)
    return v.reshape(d, d)


def g2_mode(rho: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """(g2, n) of one mode: g2 = <adag adag a a> / <adag a>**2."""
    n_op = a.conj().T @ a
    n = float(np.real(np.trace(n_op @ rho)))
    if n <= 1e-30:
        raise EmptyModeError("mode occupation %g underflows" % n)
    two = a.conj().T @ a.conj().T @ a @ a
    return float(np.real(np.trace(two @ rho))) / n ** 2, n


def g2_from_rho(rho: np.ndarray, a1: np.ndarray, a2: np.ndarray
                ) -> tuple[float, float, float, float]:
    """Exact (g2_1, g2_2, n1, n2) from a density matrix."""
    g2_1, n1 = g2_mode(rho, a1)
    g2_2, n2 = g2_mode(rho, a2)
    return g2_1, g2_2, n1, n2


def steady_g2(p: SystemParams, cutoff: int = 3, allow_large: bool = False
              ) -> tuple[float, float, float, float]:
    """Convenience: build the Liouvillian, solve, and return g2/occupations."""
    basis = FockBasis(cutoff, cutoff)
    rho = steady_state(liouvillian(p, basis, allow_large=allow_large))
    a1, a2 = two_mode_ops(basis)
    return g2_from_rho(rho, a1, a2)
