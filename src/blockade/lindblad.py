"""Steady state of the master equation, the dense Liouvillian, and exact g2(0).

The master equation is d(rho)/dt = S(rho) + kappa J(rho), with the no-jump
part S(rho) = -i (H_nh rho - rho H_nh^dag) built from the non-Hermitian
Hamiltonian H_nh that the amplitude hierarchy solves (its -i*kappa/2 per
photon is the loss part of rate-kappa photon decay in each cavity) and the
jump part J(rho) = sum_j a_j rho a_j^dag.  There is no mechanical dissipator
and no thermal occupation.

``steady_rho_stack`` solves for the steady state without a superoperator.
With H_nh = V diag(lam) V^-1, S^-1 is two basis changes and an elementwise
division by D_ij = -i (lam_i - conj(lam_j)), so each step costs O(d^3) time
and O(d^2) memory.  The steady state is the fixed point of the jump map
rho -> -kappa S^-1 J(rho), the state right after one jump propagated to the
next (quantum trajectories: Dalibard, Castin & Molmer, PRL 68, 580 (1992);
Plenio & Knight, RMP 70, 101 (1998)).  It is iterated as a defect
correction, rho <- rho - S^-1 R with the residual R = S(rho) + kappa J(rho)
formed in the Fock basis, which is the same map but keeps the relative
precision of small Fock populations.  The least-damped eigenstate of H_nh
gets no correction where its decay rate is below DARK_TOL kappa: near the
dark vacuum (drive off or barely on, gain on) the division by D_ii would
amplify rounding by up to 1e12, and the trace normalization sets that
weight exactly, as the trace row does in the dense solve.  A point stops
when its moments stop changing, or at their rounding floor, read from the
changes over the last four steps; it is kept only if the residual of its
last iterate, max|R| / (kappa (n_1 + n_2)), is at most RESIDUAL_GATE, and
is flagged SteadyStateResidualError otherwise.

Every step is the same few matrix products at every point, so a whole
stack of N points (one H_nh each, the swept rates given as arrays) runs as
one stacked eig and inv and one stacked step per iteration; each point
keeps its own stopping rule and leaves the stack when it holds.  Each
point's arithmetic is that of its one-point solve, whatever N is.  Memory
is O(N d^2): a sweep feeds the stack in chunks of
``sweep.STACK_ENTRIES // d**2`` points.  ``steady_rho`` is the N = 1 case,
as ``check_density_matrix`` is of the check that the points finishing in
one step take together, and ``g2_mode`` of ``g2_stack``, which reads both
moments from diag(rho).

``liouvillian`` builds the dense (d*d, d*d) superoperator, with density
matrices vectorized row-major (numpy ravel order), so vec(A @ rho @ B) =
kron(A, B.T) @ vec(rho):
L = -i (H_nh (x) 1 - 1 (x) conj(H_nh)) + kappa sum_j a_j (x) conj(a_j).
With ``steady_state`` (a trace-constrained linear solve, O(d^6)) it is the
reference that the tests and demos check ``steady_rho`` against; neither is
public API.  As the only code that builds a superoperator it alone refuses
d*d > 1e4 (cutoff 9 takes 1.6 GB); the rest takes any basis.
"""

from __future__ import annotations

import numpy as np

from .fock import FockBasis, g2_basis, two_mode_ops
from .model import (SystemParams, hamiltonian_stack, ladder_table,
                    non_hermitian_hamiltonian)
# not called here; perfbench's tracer wraps it here by name
from .model import effective_hamiltonian  # noqa: F401

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
EIG_FLOOR = -1e-8
# steady_rho stops when one jump-map step changes none of <n_j> and
# <a_j^dag^2 a_j^2> by more than MOMENT_TOL relative, or at the rounding
# floor of the smallest moment: when the largest such change over the last
# STALL_STEPS steps is at most STALL_TOL and no smaller than over the
# STALL_STEPS before, a window of 4 steps (the mixing step makes single
# changes non-monotone, and the test never fires while they still fall).
# A moment below MOMENT_FLOOR counts by its change relative to MOMENT_FLOOR:
# a mode that the dynamics leaves empty carries rounding noise, not a value.
# A point that stops is kept only if its last residual R, scaled as
# max|R| / (kappa (n_1 + n_2)), is at most RESIDUAL_GATE: a stop in rounding
# noise away from the fixed point is flagged, not returned.
# An eigenstate of H_nh whose decay rate |Im lam| is below DARK_TOL kappa (the
# dressed vacuum of an undriven or barely driven point) gets no correction:
# the trace normalization sets its weight.
MOMENT_TOL = 1e-14
STALL_TOL = 1e-9
STALL_STEPS = 2
MOMENT_FLOOR = 1e-20
RESIDUAL_GATE = 1e-6
DARK_TOL = 1e-8
MAX_ITERATIONS = 2000
_SMALLEST = np.finfo(float).smallest_subnormal


class DimensionOverflowError(ValueError):
    """Dense superoperator dimension above 1e4."""


class SingularLiouvillianError(np.linalg.LinAlgError):
    """Steady-state solve failed (dense or jump-map)."""


class SteadyStateConvergenceError(SingularLiouvillianError):
    """Jump-map iteration did not converge within MAX_ITERATIONS steps."""


class SteadyStateResidualError(SingularLiouvillianError):
    """Jump-map iteration stopped with a scaled residual above
    RESIDUAL_GATE."""


class EmptyModeError(ZeroDivisionError):
    """g2(0) requested for a mode with negligible occupation."""


class UnphysicalStateError(ValueError):
    """Density-matrix invariants (trace/Hermiticity/positivity) violated."""


def liouvillian(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Dense Liouvillian of the dissipative dynamics, shape (d*d, d*d)."""
    if basis.dim ** 2 > 10 ** 4:
        raise DimensionOverflowError("superoperator dimension %d > 1e4"
                                     % basis.dim ** 2)
    h = non_hermitian_hamiltonian(p, basis)
    eye = np.eye(basis.dim, dtype=complex)
    liouv = np.kron(h, eye)             # in place: one full-size temporary
    liouv -= np.kron(eye, h.conj())
    liouv *= -1j
    for a in two_mode_ops(basis):
        liouv += np.kron(p.kappa * a, a.conj())
    return liouv


def _diagonalize(h: np.ndarray):
    """(lam, v, v^-1, ok) of each H_nh of the stack, from one stacked eig and
    inv.  If either raises, the stack is split point by point; a point whose
    eig or inv fails has ok False and void factors."""
    try:
        lam, v = np.linalg.eig(h)
        return lam, v, np.linalg.inv(v), np.ones(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        if len(h) == 1:
            return h[:, 0], h, h, np.zeros(1, dtype=bool)
        return tuple(np.concatenate(part) for part in
                     zip(*(_diagonalize(x) for x in np.split(h, len(h)))))


def steady_rho_stack(p: SystemParams, basis: FockBasis, **arrays
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Steady density matrices by the defect-corrected jump map, one per
    point of ``stacked_rates(p, arrays)``.

    See the module docstring for the method.  All points iterate together:
    each step is one stacked residual, basis change, Hermitization, trace
    normalization and mixing step over the points not yet converged, and a
    point leaves the stack when its own stopping rule holds.  The iteration
    starts from the one-photon state of cavity 1, whose image is the vacuum
    propagated without jumps; the vacuum itself would be sent to zero
    (J(|0><0|) = 0).  From the second step on, the next iterate is the
    convex combination of the last two images whose weight least-squares
    minimizes the combined step (Anderson mixing of depth 1, weight clipped
    to [0, 1]).  This removes the period-2 alternation between photon-number
    parities that slows the plain map when pair creation dominates the
    coherent drive, and keeps every iterate a density matrix.  A point's
    result is its last image, Hermitized, trace-normalized and checked by
    ``check_density_matrix``.  Where H_nh annihilates the vacuum
    (drive_E = lambda_gain = 0, or drive_E = 0 at cutoff 1) the vacuum is
    returned: it is the steady state and D vanishes on it.

    Returns the (N, d, d) states and per point "" or the name of the error
    that voids its state (NaN): SingularLiouvillianError where H_nh cannot
    be diagonalized, SteadyStateConvergenceError after MAX_ITERATIONS steps,
    UnphysicalStateError where the check fails, SteadyStateResidualError
    where the residual of the last iterate, max|R| / (kappa (n_1 + n_2)),
    is above RESIDUAL_GATE (or NaN).
    """
    h = hamiltonian_stack(p, ladder_table(basis), **arrays)
    ops = two_mode_ops(basis)
    dark = ~h[:, :, 0].any(axis=1)      # H_nh |0> = 0: the vacuum is dark
    lam, v, w, ok = _diagonalize(h)
    live = np.flatnonzero(ok & ~dark)
    errors = np.full(len(h), "", dtype=object)
    errors[~ok & ~dark] = "SingularLiouvillianError"
    errors[live] = "SteadyStateConvergenceError"    # until the point converges
    rho_out = np.full(h.shape, np.nan, dtype=complex)
    rho_out[dark] = 0.0
    rho_out[dark, 0, 0] = 1.0
    if not len(live):
        return rho_out, errors
    h, lam, v, w = (x[live] for x in (h, lam, v, w))
    v_h, w_h = v.conj().swapaxes(1, 2), w.conj().swapaxes(1, 2)
    den = -1j * (lam[:, :, None] - lam.conj()[:, None, :])
    # the dressed vacuum: D_i0i0 = 2 Im lam_i0 would amplify rounding by
    # over 1/DARK_TOL, so its own equation is dropped and the trace row takes
    # its place (L keeps the trace, so it holds at the fixed point)
    rate = np.abs(lam.imag)
    i0 = rate.argmin(axis=1)
    near = np.flatnonzero(rate.min(axis=1) < DARK_TOL * p.kappa)
    den[near, i0[near], i0[near]] = np.inf
    # a_1 and a_2 shift the flat index by n_max_2 + 1 and by 1: the nonzero
    # entries of a_j are the diagonal s_j at that offset.  So kappa J(rho) is
    # a sum of shifted blocks (kappa s_j) rho' s_j; in complex and in this
    # order, it rounds as the dense products do.
    shifts = [(m, np.diagonal(a, m))
              for a, m in zip(ops, (basis.n_max_2 + 1, 1))]
    left = [p.kappa * s[:, None] for _, s in shifts]

    def jump(r):
        out = np.zeros_like(r)
        for (m, s), k_s in zip(shifts, left):
            out[:, :-m, :-m] += k_s * r[:, m:, m:] * s
        return out

    weights = _moment_weights(*ops)     # <n_1>, <n_2>, then pair moments
    one = basis.flatten(1, 0)
    rho = np.zeros(h.shape, dtype=complex)
    rho[:, one, one] = 1.0
    m_rho = _moments(weights, rho)
    changes, previous = [], None        # changes: the last 2*STALL_STEPS
    for _ in range(MAX_ITERATIONS):
        hr = h @ rho                    # rho H^dag = (H rho)^dag
        resid = -1j * (hr - hr.conj().swapaxes(1, 2)) + jump(rho)
        image = rho - v @ ((w @ resid @ w_h) / den) @ v_h
        image = 0.5 * (image + image.conj().swapaxes(1, 2))
        image /= image.trace(axis1=1, axis2=2).real[:, None, None]
        m_image = _moments(weights, image)
        change = np.max(np.abs(m_image - m_rho) / np.maximum(
            np.abs(m_image), MOMENT_FLOOR), axis=(1, 2))
        changes = changes[1 - 2 * STALL_STEPS:] + [change]
        done = change <= MOMENT_TOL
        if len(changes) == 2 * STALL_STEPS and change.min() <= STALL_TOL:
            history = np.array(changes)
            recent = history[STALL_STEPS:].max(axis=0)
            done |= (recent <= STALL_TOL) & (
                recent >= history[:STALL_STEPS].max(axis=0))
        finished = np.flatnonzero(done)
        if len(finished):
            physical = _density_checks(image[finished])[1].all(axis=1)
            n = m_rho[finished, :2, 0].sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.abs(resid[finished]).max(axis=(1, 2)) \
                    / (p.kappa * n)
            errors[live[finished]] = "SteadyStateResidualError"
            errors[live[finished[~physical]]] = "UnphysicalStateError"
            valid = finished[physical & (score <= RESIDUAL_GATE)]  # NaN fails
            rho_out[live[valid]], errors[live[valid]] = image[valid], ""
        if len(finished) == len(live):
            break
        step = image - rho
        rho = image
        if previous is not None:
            d_step = step - previous[1]
            row = d_step.reshape(len(live), 1, -1).conj()  # np.vdot rounds so
            norm = (row @ d_step.reshape(len(live), -1, 1)).real
            dot = (row @ step.reshape(len(live), -1, 1)).real
            # the least-squares weight clipped to [0, 1]; 0 where norm = 0
            weight = np.minimum(np.maximum(dot, 0.0), norm) \
                / np.maximum(norm, _SMALLEST)
            rho = image - weight * (image - previous[0])
        previous = (image, step)
        m_rho = _moments(weights, rho)
        if len(finished):
            keep = ~done
            live, h, v, w, v_h, w_h, den, rho, m_rho = (
                x[keep] for x in (live, h, v, w, v_h, w_h, den, rho, m_rho))
            changes = [c[keep] for c in changes]
            previous = (image[keep], step[keep])
    return rho_out, errors


_ERRORS = {cls.__name__: (cls, msg) for cls, msg in (
    (SingularLiouvillianError, "H_nh could not be diagonalized"),
    (SteadyStateConvergenceError,
     "jump-map iteration did not converge in {steps} steps"),
    (SteadyStateResidualError,
     "jump-map iteration stopped at a scaled residual above {gate}"),
    (UnphysicalStateError, "steady state failed the density-matrix check"))}


def steady_rho(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Steady density matrix at one point; see ``steady_rho_stack``.

    Raises the error that ``steady_rho_stack`` names for the point.
    """
    rho, errors = steady_rho_stack(p, basis)
    if errors[0]:
        cls, msg = _ERRORS[errors[0]]
        raise cls(msg.format(steps=MAX_ITERATIONS, gate=RESIDUAL_GATE))
    return rho[0]


def _density_checks(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) trace deviation from 1, Hermiticity violation and least
    eigenvalue of each state of an (N, d, d) stack, and whether each is
    within TRACE_TOL, HERM_TOL and EIG_FLOOR (NaN is not)."""
    rhos_h = rhos.conj().swapaxes(1, 2)
    herm = 0.5 * (rhos + rhos_h)
    herm[~np.isfinite(herm).all(axis=(1, 2))] = 0.0     # eigvalsh raises
    m = np.stack([np.abs(rhos.trace(axis1=1, axis2=2) - 1.0),
                  np.abs(rhos - rhos_h).max(axis=(1, 2)),
                  np.linalg.eigvalsh(herm).min(axis=1)], axis=1)
    return m, m * (1, 1, -1) <= (TRACE_TOL, HERM_TOL, -EIG_FLOOR)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise UnphysicalStateError unless rho is a valid state."""
    m, within = _density_checks(rho[None])
    if not within.all():
        k = int(np.argmin(within[0]))           # the first failed check
        raise UnphysicalStateError((
            "trace deviates from 1 by %g", "Hermiticity violation %g",
            "negative eigenvalue %g")[k] % m[0, k])


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Steady density matrix from the trace-constrained linear solve.

    One row of L is replaced by the vectorized-trace row with right-hand
    side 1.  The raw solution is checked by ``check_density_matrix``, so
    its asymmetry must be within HERM_TOL, and returned Hermitized.
    """
    d2 = liouv.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError("superoperator dimension is not a perfect square")
    m = liouv.copy()
    m[0, :] = 0.0
    m[0, ::d + 1] = 1.0             # vec indices of diagonal entries
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    try:
        rho = np.linalg.solve(m, b).reshape(d, d)
    except np.linalg.LinAlgError as exc:
        raise SingularLiouvillianError(str(exc)) from exc
    check_density_matrix(rho)
    return 0.5 * (rho + rho.conj().T)


def _moment_weights(*modes: np.ndarray) -> np.ndarray:
    """(2 M, d) weights of <adag a> of each of M modes, then of their
    <adag adag a a>, on diag(rho).  Each a is an annihilation operator of a
    FockBasis, so adag a is diagonal, with entries occ = |a|^2 summed over
    each column, and adag adag a a = adag a (adag a - 1)."""
    occ = np.stack([(a.conj() * a).real.sum(axis=0) for a in modes])
    return np.concatenate([occ, occ * (occ - 1)])


def _moments(weights: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """(N, 2 M, 1) moments of an (N, d, d) stack: one product per point, so
    each point rounds alike whatever N is (one product over the stack,
    diag @ weights.T, does not)."""
    return weights @ rhos.diagonal(axis1=1, axis2=2).real[:, :, None]


def g2_stack(rhos: np.ndarray, a: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g2, n, empty) of the mode of Fock-basis annihilation operator a at
    each state of an (N, d, d) stack: g2 = <adag adag a a> / <adag a>**2,
    with both moments read from diag(rho), undefined where n <= 1e-30
    (empty, EmptyModeError).  n**2 is pow(), as Python's float ** rounds
    it."""
    n, two = _moments(_moment_weights(a), rhos)[:, :, 0].T
    with np.errstate(divide="ignore", invalid="ignore"):
        return two / np.float_power(n, 2), n, n <= 1e-30


def g2_mode(rho: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """(g2, n) of one mode; see ``g2_stack``."""
    g2, n, empty = g2_stack(rho[None], a)
    if empty[0]:
        raise EmptyModeError("mode occupation %g underflows" % n[0])
    return float(g2[0]), float(n[0])


def g2_from_rho(rho: np.ndarray, a1: np.ndarray, a2: np.ndarray
                ) -> tuple[float, float, float, float]:
    """Exact (g2_1, g2_2, n1, n2) from a density matrix."""
    g2_1, n1 = g2_mode(rho, a1)
    g2_2, n2 = g2_mode(rho, a2)
    return g2_1, g2_2, n1, n2


def steady_g2(p: SystemParams, cutoff: int = 3, allow_large: bool = False
              ) -> tuple[float, float, float, float]:
    """Exact (g2_1, g2_2, n1, n2) from ``steady_rho`` at a cutoff.

    A cutoff that ``g2_basis`` rejects raises InvalidCutoffError.
    ``allow_large`` is accepted and ignored; it lifted a retired guard.
    """
    basis = g2_basis(cutoff)
    rho = steady_rho(p, basis)
    a1, a2 = two_mode_ops(basis)
    return g2_from_rho(rho, a1, a2)
