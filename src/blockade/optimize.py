"""Multi-start Newton search for (delta, lambda) pairs with vanishing
two-photon amplitude (perfect antibunching of the chosen cavity).

Detunings here are on the *reporting* axis used by the published tables
and figure captions, which is sign-flipped relative to the internal
Hamiltonian convention: a pair reported at delta corresponds to the
Hamiltonian evaluated at -delta.  The residual is the complex conjugate of
the solve-path two-photon amplitude at that flipped detuning, which makes
it coincide with the closed-form coefficient at delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .amplitude import steady_amplitudes, analytic_coefficients
from .fock import FockBasis
from .lindblad import check_dimension, steady_g2
from .model import SystemParams

NEWTON_FD_STEP = 1e-9
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 20
DEDUPE_DIST = 1e-8
CPB_PROXIMITY_KAPPAS = 5.0


@dataclass(frozen=True)
class SearchGrid:
    """Rectangular grid of Newton start points."""

    delta_range: tuple[float, float]
    lambda_range: tuple[float, float]
    n_delta: int = 12
    n_lambda: int = 8

    def __post_init__(self):
        if not np.all(np.isfinite((*self.delta_range, *self.lambda_range))):
            raise ValueError("range ends must be finite")
        if self.delta_range[0] >= self.delta_range[1]:
            raise ValueError("delta_range must satisfy lo < hi")
        if self.lambda_range[0] >= self.lambda_range[1]:
            raise ValueError("lambda_range must satisfy lo < hi")
        if self.n_delta < 4 or self.n_lambda < 4:
            raise ValueError("start counts must be >= 4")

    def starts(self) -> np.ndarray:
        dd = np.linspace(*self.delta_range, self.n_delta)
        ll = np.linspace(*self.lambda_range, self.n_lambda)
        return np.array([(d, l) for d in dd for l in ll])


# Default search grids for the two regimes.
WEAK_GRID = SearchGrid((-0.01, 0.01), (-5e-6, 5e-6), 24, 10)
STRONG_GRID = SearchGrid((-0.02, 0.1), (-5e-6, 5e-6), 32, 10)


@dataclass(frozen=True)
class OptimalPair:
    delta_opt: float
    lambda_opt: float
    residual: float
    cavity: int
    g2_check: float
    mechanism: str = ""
    proximity: str = ""


def target_residual(delta: float, lam: float, p: SystemParams,
                    cavity: int) -> complex:
    """Two-photon amplitude of the chosen cavity at a reporting-axis point.

    Evaluates the amplitude-hierarchy solve at the internal detuning
    -delta and conjugates, so the value is smooth in (delta, lam) and
    vanishes exactly where the published optimal-pair condition holds.
    """
    if p.theta != 0.0 or p.phi != 0.0:
        raise ValueError("target_residual requires theta = phi = 0")
    s = steady_amplitudes(p.replace(delta=-delta, lambda_gain=lam))
    c = s.c20 if cavity == 1 else s.c02
    return complex(np.conj(c))


def _newton_2d(fun, x0: np.ndarray, tol: float) -> np.ndarray | None:
    """Damped Newton on R^2 -> R^2 with central-difference Jacobian."""
    x = x0.astype(float).copy()
    f = fun(x)
    for _ in range(NEWTON_MAX_ITER):
        if np.linalg.norm(f) <= tol:
            return x
        jac = np.empty((2, 2))
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = NEWTON_FD_STEP
            jac[:, i] = (fun(x + dx) - fun(x - dx)) / (2 * NEWTON_FD_STEP)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            f_new = fun(x + scale * step)
            if np.linalg.norm(f_new) < np.linalg.norm(f):
                break
            scale *= 0.5
        else:
            return None
        x = x + scale * step
        f = f_new
    return x if np.linalg.norm(f) <= tol else None


def _newton_roots(fun, grid: SearchGrid, tol: float,
                  pad: float | None = None) -> list[np.ndarray]:
    """Distinct Newton roots from the grid starts, sorted by delta.

    With pad, a root must lie in the grid box widened on each side by pad
    times its extent.  Newton divergence at a start point is skipped.
    """
    (d_lo, d_hi), (l_lo, l_hi) = grid.delta_range, grid.lambda_range
    d_pad, l_pad = (pad or 0.0) * (d_hi - d_lo), (pad or 0.0) * (l_hi - l_lo)
    roots: list[np.ndarray] = []
    for x0 in grid.starts():
        try:
            x = _newton_2d(fun, x0, tol)
        except (np.linalg.LinAlgError, ArithmeticError):
            continue
        if x is None or any(np.linalg.norm(x - r) < DEDUPE_DIST
                            for r in roots):
            continue
        if pad is not None and not (d_lo - d_pad <= x[0] <= d_hi + d_pad and
                                    l_lo - l_pad <= x[1] <= l_hi + l_pad):
            continue
        roots.append(x)
    return sorted(roots, key=lambda r: r[0])


def find_optimal_pairs(p: SystemParams, cavity: int,
                       grid: SearchGrid, g2_cutoff: int = 4,
                       oracle_threshold: float | None = 1e-2
                       ) -> list[OptimalPair]:
    """All distinct antibunching roots reachable from the grid starts.

    Roots are deduplicated, restricted to a 10%-padded grid box, annotated
    with the master-equation g2 of the target cavity, classified, and
    sorted by delta.  Newton divergence at a start point is skipped.

    A returned pair is certified by the master-equation oracle: roots whose
    exact g2 at the drive ``p.drive_E`` exceeds ``oracle_threshold`` are
    dropped.  A root zeroes the two-photon amplitude of the n1 + n2 <= 2
    hierarchy only; at finite drive the exact g2 there is not zero but
    scales as (E/kappa)^2, so certification depends on the drive: at the
    weak preset (E = 0.02 kappa) the 2nd and 3rd roots sit at ~1.1e-2 and
    are dropped, while at half that drive with lambda quartered
    (lambda_opt scales as E^2) they sit at ~3e-3.  Roots on two-photon
    resonances, where the hierarchy breaks down entirely, are dropped too.
    Pass ``oracle_threshold=None`` to keep every root.  A bad or oversized
    oracle cutoff raises before the search.
    """
    check_dimension(FockBasis(g2_cutoff, g2_cutoff))
    if p.drive_E <= 0:
        return []
    tol = 1e-10 * p.drive_E ** 2

    def fun(x):
        r = target_residual(x[0], x[1], p, cavity)
        return np.array([r.real, r.imag])

    pairs = []
    for x in _newton_roots(fun, grid, tol, pad=0.1):
        resid = abs(target_residual(x[0], x[1], p, cavity))
        g2 = steady_g2(p.replace(delta=-x[0], lambda_gain=x[1]),
                       cutoff=g2_cutoff)[cavity - 1]
        if oracle_threshold is not None and g2 > oracle_threshold:
            continue
        pair = OptimalPair(delta_opt=float(x[0]), lambda_opt=float(x[1]),
                           residual=float(resid), cavity=cavity, g2_check=g2)
        pairs.append(classify_mechanism(pair, p))
    return pairs


def closed_form_roots(p: SystemParams, cavity: int, grid: SearchGrid
                      ) -> list[tuple[float, float]]:
    """Roots of the printed closed-form coefficients, for typo isolation.

    Same Newton machinery applied to the published formulas; compared
    against the solve-path roots when the two disagree by more than
    1e-6 in either coordinate.
    """
    if p.drive_E <= 0:
        return []
    tol = 1e-10 * p.drive_E ** 2

    def fun(x):
        s = analytic_coefficients(p.replace(delta=x[0], lambda_gain=x[1]))
        c = s.c20 if cavity == 1 else s.c02
        return np.array([c.real, c.imag])

    return [(float(r[0]), float(r[1])) for r in _newton_roots(fun, grid, tol)]


def classify_mechanism(pair: OptimalPair, p: SystemParams) -> OptimalPair:
    """Tag a root as conventional (CPB) or interference (UCPB) blockade.

    CPB requires a resolved nonlinearity (mu > kappa) and proximity of the
    reported detuning to a single-excitation resonance mu +/- J within
    5*kappa.  When both resonances match, the closer one is annotated.
    """
    d_plus = p.mu + p.hop_J
    d_minus = p.mu - p.hop_J
    near_plus = abs(pair.delta_opt - d_plus) <= CPB_PROXIMITY_KAPPAS * p.kappa
    near_minus = abs(pair.delta_opt - d_minus) <= CPB_PROXIMITY_KAPPAS * p.kappa
    if p.mu > p.kappa and (near_plus or near_minus):
        if near_plus and near_minus:
            prox = ("delta_plus" if abs(pair.delta_opt - d_plus)
                    <= abs(pair.delta_opt - d_minus) else "delta_minus")
            prox += "+both"
        else:
            prox = "delta_plus" if near_plus else "delta_minus"
        return OptimalPair(**{**asdict(pair), "mechanism": "CPB",
                              "proximity": prox})
    return OptimalPair(**{**asdict(pair), "mechanism": "UCPB",
                          "proximity": ""})


def pairs_to_json(pairs: list[OptimalPair]) -> str:
    return json.dumps([asdict(p) for p in pairs], indent=2)
