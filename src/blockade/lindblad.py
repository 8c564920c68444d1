"""Steady state of the master equation, the dense Liouvillian, and exact g2(0).

The master equation is d(rho)/dt = S(rho) + kappa J(rho), with the no-jump
part S(rho) = -i (H_nh rho - rho H_nh^dag) built from the non-Hermitian
Hamiltonian H_nh that the amplitude hierarchy solves (its -i*kappa/2 per
photon is the loss part of rate-kappa photon decay in each cavity) and the
jump part J(rho) = sum_j a_j rho a_j^dag.  There is no mechanical dissipator
and no thermal occupation.

``steady_rho`` solves for the steady state without a superoperator.  With
H_nh = V diag(lam) V^-1, S^-1 is two basis changes and an elementwise
division by D_ij = -i (lam_i - conj(lam_j)), so each step costs O(d^3) time
and O(d^2) memory.  The steady state is the fixed point of the jump map
rho -> -kappa S^-1 J(rho), the state right after one jump propagated to the
next (quantum trajectories: Dalibard, Castin & Molmer, PRL 68, 580 (1992);
Plenio & Knight, RMP 70, 101 (1998)).  It is iterated as a defect
correction, rho <- rho - S^-1 R with the residual R = S(rho) + kappa J(rho)
formed in the Fock basis, which is the same map but keeps the relative
precision of small Fock populations.

``liouvillian`` builds the dense (d*d, d*d) superoperator, with density
matrices vectorized row-major (numpy ravel order), so vec(A @ rho @ B) =
kron(A, B.T) @ vec(rho):
L = -i (H_nh (x) 1 - 1 (x) conj(H_nh)) + kappa sum_j a_j (x) conj(a_j).
With ``steady_state`` (a trace-constrained linear solve, O(d^6)) it is the
reference the tests and demos check ``steady_rho`` against, and the
generator ``evolve`` integrates.
"""

from __future__ import annotations

import numpy as np

from .fock import FockBasis, two_mode_ops
from .model import SystemParams, _non_hermitian
# not called here; perfbench's tracer wraps it here by name
from .model import effective_hamiltonian  # noqa: F401

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
# steady_rho stops when one jump-map step changes none of <n_j> and
# <a_j^dag^2 a_j^2> by more than MOMENT_TOL relative, or at the rounding
# floor of the smallest moment: when the largest such change over the last
# STALL_STEPS steps is at most STALL_TOL and no smaller than over the
# STALL_STEPS before (the mixing step makes single changes non-monotone).
# A moment below MOMENT_FLOOR counts by its change relative to MOMENT_FLOOR:
# a mode that the dynamics leaves empty carries rounding noise, not a value.
MOMENT_TOL = 1e-14
STALL_TOL = 1e-9
STALL_STEPS = 8
MOMENT_FLOOR = 1e-20
MAX_ITERATIONS = 2000


class DimensionOverflowError(ValueError):
    """Superoperator dimension above the guard without an explicit override."""


class SingularLiouvillianError(np.linalg.LinAlgError):
    """Steady-state solve failed (dense or jump-map)."""


class SteadyStateConvergenceError(SingularLiouvillianError):
    """Jump-map iteration did not converge within MAX_ITERATIONS steps."""


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
    ops = two_mode_ops(basis)
    h = _non_hermitian(p, *ops)
    eye = np.eye(basis.dim, dtype=complex)
    liouv = np.kron(h, eye)             # in place: one full-size temporary
    liouv -= np.kron(eye, h.conj())
    liouv *= -1j
    for a in ops:
        liouv += np.kron(p.kappa * a, a.conj())
    return liouv


def steady_rho(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Steady density matrix by the defect-corrected jump map.

    See the module docstring for the method.  The iteration starts from
    the one-photon state of cavity 1, whose image is the vacuum propagated
    without jumps; the vacuum itself would be sent to zero (J(|0><0|) = 0).
    From the second step on, the next iterate is the convex combination of
    the last two images whose weight least-squares minimizes the combined
    step (Anderson mixing of depth 1, weight clipped to [0, 1]).  This
    removes the period-2 alternation between photon-number parities that
    slows the plain map when pair creation dominates the coherent drive,
    and keeps every iterate a density matrix.  The result is the last
    image, Hermitized, trace-normalized and checked.
    Where H_nh annihilates the vacuum (drive_E = lambda_gain = 0, or
    drive_E = 0 at cutoff 1) the vacuum is returned: it is the steady state
    and D vanishes on it.  Raises SteadyStateConvergenceError after
    MAX_ITERATIONS steps, SingularLiouvillianError if H_nh cannot be
    diagonalized, and UnphysicalStateError as ``check_density_matrix``.
    """
    ops = two_mode_ops(basis)
    h = _non_hermitian(p, *ops)
    rho = np.zeros(h.shape, dtype=complex)
    if not h[:, 0].any():               # H_nh |0> = 0: the vacuum is dark
        rho[0, 0] = 1.0
        return rho
    try:
        lam, v = np.linalg.eig(h)
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise SingularLiouvillianError(str(exc)) from exc
    v_h, w_h = v.conj().T, w.conj().T
    den = -1j * (lam[:, None] - lam.conj())
    jump_l = p.kappa * np.stack(ops)
    jump_r = np.stack(ops).conj().transpose(0, 2, 1)
    occ = np.stack([(a.conj().T @ a).diagonal().real for a in ops])
    weights = np.concatenate([occ, occ * (occ - 1)])

    def moments(r):
        return weights @ r.diagonal().real

    one = basis.flatten(1, 0)
    rho[one, one] = 1.0
    m_rho = moments(rho)
    changes, previous = [], None
    for _ in range(MAX_ITERATIONS):
        hr = h @ rho                    # rho H^dag = (H rho)^dag
        resid = -1j * (hr - hr.conj().T) + (jump_l @ rho @ jump_r).sum(axis=0)
        image = rho - v @ ((w @ resid @ w_h) / den) @ v_h
        image = 0.5 * (image + image.conj().T)
        image /= image.trace().real
        m_image = moments(image)
        changes.append(np.max(np.abs(m_image - m_rho)
                              / np.maximum(np.abs(m_image), MOMENT_FLOOR)))
        recent = max(changes[-STALL_STEPS:])
        if changes[-1] <= MOMENT_TOL or (
                len(changes) >= 2 * STALL_STEPS and recent <= STALL_TOL
                and recent >= max(changes[-2 * STALL_STEPS:-STALL_STEPS])):
            check_density_matrix(image)
            return image
        step = image - rho
        rho = image
        if previous is not None:
            d_step = step - previous[1]
            norm = np.vdot(d_step, d_step).real
            if norm > 0:
                gamma = np.vdot(d_step, step).real / norm
                rho = image - min(max(gamma, 0.0), 1.0) * (image - previous[0])
        previous = (image, step)
        m_rho = moments(rho)
    raise SteadyStateConvergenceError(
        "jump-map iteration did not converge in %d steps (relative moment "
        "change %.1e)" % (MAX_ITERATIONS, changes[-1]))


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


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Steady density matrix from the trace-constrained linear solve.

    One row of L is replaced by the vectorized-trace row with right-hand
    side 1; the solution is Hermitized and validated.  The pre-Hermitization
    asymmetry is available via ``steady_state_with_diagnostics``.
    """
    rho, _ = steady_state_with_diagnostics(liouv)
    return rho


def steady_state_with_diagnostics(liouv: np.ndarray
                                  ) -> tuple[np.ndarray, dict]:
    d2 = liouv.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError("superoperator dimension is not a perfect square")
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
    """Exact (g2_1, g2_2, n1, n2) from ``steady_rho`` at a cutoff.

    A cutoff whose dense superoperator would exceed the ``check_dimension``
    guard still needs allow_large=True.
    """
    basis = FockBasis(cutoff, cutoff)
    check_dimension(basis, allow_large)
    rho = steady_rho(p, basis)
    a1, a2 = two_mode_ops(basis)
    return g2_from_rho(rho, a1, a2)
