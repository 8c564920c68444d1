"""Multi-start Newton search for (delta, lambda) pairs with vanishing
two-photon amplitude (perfect antibunching of the chosen cavity).

Detunings here are on the *reporting* axis of the published tables and
figure captions, sign-flipped relative to the internal Hamiltonian
convention: a pair reported at delta is the Hamiltonian at -delta.  The
residual is the conjugated solve-path two-photon amplitude there, which
equals the printed closed-form coefficient at delta.

Newton runs from every start of a SearchGrid in lockstep: per iteration,
stacked residual calls take the Jacobian stencils and full steps of all
active starts, then the step-halving ladders of those whose full step does
not lower the residual norm.  A start follows its lone path bit for bit and
is dropped once it leaves the grid box widened by BOX_PAD (most would run to
a root at infinity, |delta| ~ 1e5).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .amplitude import steady_amplitude_stack, steady_amplitudes
from .fock import g2_basis
from .lindblad import steady_g2
from .model import SystemParams, check_range, cpb_detunings

NEWTON_FD_STEP = 1e-9
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 20
DEDUPE_DIST = 1e-8
# the search stays inside the grid box widened by this share of its extent
BOX_PAD = 0.1
CPB_PROXIMITY_KAPPAS = 5.0
# a 1000 x 100 grid: the lockstep stacks peak near 420 MB, the search ~12 s
MAX_STARTS = 100_000
# the stencil offsets dx_i (row i) and the ladder scales 1, 1/2, 1/4, ...
_FD = NEWTON_FD_STEP * np.eye(2)
_LADDER = np.ldexp(1.0, -np.arange(NEWTON_MAX_HALVINGS))


@dataclass(frozen=True)
class SearchGrid:
    """Rectangular grid of Newton start points."""

    delta_range: tuple[float, float]
    lambda_range: tuple[float, float]
    n_delta: int = 12
    n_lambda: int = 8

    def __post_init__(self):
        for name in ("delta_range", "lambda_range"):
            check_range(name, getattr(self, name))
        if (min(self.n_delta, self.n_lambda) < 4
                or self.n_delta * self.n_lambda > MAX_STARTS):
            raise ValueError("start counts must be >= 4 with at most %d "
                             "starts" % MAX_STARTS)

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


def target_residual_stack(x: np.ndarray, p: SystemParams, cavity: int
                          ) -> np.ndarray:
    """``target_residual`` at each row (delta, lambda) of x, bit for bit, as
    (N, 2) rows (real, imag)."""
    if p.theta != 0.0 or p.phi != 0.0:
        raise ValueError("target_residual requires theta = phi = 0")
    c = steady_amplitude_stack(p, delta=-x[:, 0], lambda_gain=x[:, 1])
    c = np.conj(c[:, 5 if cavity == 1 else 4])          # c20 or c02
    return np.stack([c.real, c.imag], axis=1)


def _evaluate(fun, x: np.ndarray) -> np.ndarray:
    """fun at the finite points (last axis) of x; NaN rows at the others."""
    ok = np.isfinite(x).all(axis=-1)
    f = np.full(x.shape, np.nan)
    if ok.any():
        f[ok] = fun(x[ok])
    return f


def _norms(f: np.ndarray) -> np.ndarray:
    # as np.linalg.norm of each vector: both take the BLAS dot, where
    # norm(f, axis=-1) sums the squares and can differ by an ulp
    return np.sqrt((f[..., None, :] @ f[..., None])[..., 0, 0])


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """jac^-1 (-f) per row; NaN rows where jac is singular."""
    try:
        return np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:       # bisect the stack to find them
        if len(f) == 1:
            return np.full(f.shape, np.nan)
        h = len(f) // 2
        return np.concatenate([_newton_steps(jac[:h], f[:h]),
                               _newton_steps(jac[h:], f[h:])])


def _newton_paths(fun, starts: np.ndarray, box, tol: float) -> np.ndarray:
    """End points of damped Newton from each row of starts, in lockstep.

    fun maps (N, 2) points to (N, 2) residuals; box holds the (lo, hi) of
    delta and of lambda as rows.  A start ends on a NaN row if an accepted
    iterate leaves box, if its Jacobian is singular, if no ladder point
    lowers the norm, or if the norm is above tol after NEWTON_MAX_ITER steps.
    A NaN residual (as at non-finite points) never lowers the norm.
    """
    x = np.array(starts, dtype=float)
    f = _evaluate(fun, x)
    live = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        act = np.flatnonzero(live & (_norms(f) > tol))
        if not act.size:
            break
        xa, fa = x[act], f[act]
        # column i of the Jacobian from the stencil points x +/- dx_i
        fd = _evaluate(fun, np.concatenate(
            [xa[:, None] + _FD, xa[:, None] - _FD], axis=1))
        jac = (fd[:, :2] - fd[:, 2:]) / (2 * NEWTON_FD_STEP)
        step = _newton_steps(jac.transpose(0, 2, 1), fa)
        ladder = xa[:, None] + _LADDER[:, None] * step[:, None]
        fl = np.full(ladder.shape, np.nan)
        fl[:, 0] = _evaluate(fun, ladder[:, 0])
        short = ~(_norms(fl[:, 0]) < _norms(fa))        # halve only these
        fl[short, 1:] = _evaluate(fun, ladder[short, 1:])
        better = _norms(fl) < _norms(fa)[:, None]
        k = better.argmax(axis=1)                       # the first improving
        rows = np.arange(len(act))
        x[act], f[act] = ladder[rows, k], fl[rows, k]
        live[act] = better.any(axis=1) & (
            (box[:, 0] <= x[act]) & (x[act] <= box[:, 1])).all(axis=1)
    return np.where((live & (_norms(f) <= tol))[:, None], x, np.nan)


def find_optimal_pairs(p: SystemParams, cavity: int,
                       grid: SearchGrid, g2_cutoff: int = 4,
                       oracle_threshold: float | None = 1e-2
                       ) -> list[OptimalPair]:
    """All distinct antibunching roots reachable from the grid starts.

    Newton runs from all starts in lockstep on ``target_residual_stack``
    inside the grid box widened by BOX_PAD on each side (see the module
    docstring).  Its roots are deduplicated in start order and sorted by
    delta; each then takes one ``target_residual`` call for its residual
    and one ``steady_g2`` call for the master-equation g2 of the target
    cavity, and is classified.

    A returned pair is certified by the master-equation oracle: roots whose
    exact g2 at the drive ``p.drive_E`` exceeds ``oracle_threshold`` are
    dropped.  A root zeroes the two-photon amplitude of the n1 + n2 <= 2
    hierarchy only; at finite drive the exact g2 there is not zero but
    scales as (E/kappa)^2, so certification depends on the drive: at the
    weak preset (E = 0.02 kappa) the 2nd and 3rd roots sit at ~1.1e-2 and
    are dropped, while at half that drive with lambda quartered
    (lambda_opt scales as E^2) they sit at ~3e-3.  Roots on two-photon
    resonances, where the hierarchy breaks down entirely, are dropped too.
    Pass ``oracle_threshold=None`` to keep every root.  An oracle cutoff
    that ``g2_basis`` rejects raises InvalidCutoffError before the search.
    """
    g2_basis(g2_cutoff)
    if p.drive_E <= 0:
        return []
    tol = 1e-10 * p.drive_E ** 2

    box = np.array([grid.delta_range, grid.lambda_range])  # (lo, hi) rows
    box = box + BOX_PAD * np.diff(box) * [-1, 1]
    ends = _newton_paths(lambda x: target_residual_stack(x, p, cavity),
                         grid.starts(), box, tol)
    roots: list[np.ndarray] = []
    for x in ends[~np.isnan(ends[:, 0])]:
        if all(np.linalg.norm(x - r) >= DEDUPE_DIST for r in roots):
            roots.append(x)

    pairs = []
    for x in sorted(roots, key=lambda r: r[0]):
        resid = abs(target_residual(x[0], x[1], p, cavity))
        g2 = steady_g2(p.replace(delta=-x[0], lambda_gain=x[1]),
                       cutoff=g2_cutoff)[cavity - 1]
        if oracle_threshold is not None and g2 > oracle_threshold:
            continue
        pair = OptimalPair(delta_opt=float(x[0]), lambda_opt=float(x[1]),
                           residual=float(resid), cavity=cavity, g2_check=g2)
        pairs.append(classify_mechanism(pair, p))
    return pairs


def classify_mechanism(pair: OptimalPair, p: SystemParams) -> OptimalPair:
    """Tag a root as conventional (CPB) or interference (UCPB) blockade.

    CPB requires a resolved nonlinearity (mu > kappa) and proximity of the
    reported detuning to a single-excitation resonance mu +/- J within
    5*kappa.  When both resonances match, the closer one is annotated
    (delta_plus on a tie).
    """
    d_plus, d_minus = (abs(pair.delta_opt - d) for d in cpb_detunings(p))
    near_plus = d_plus <= CPB_PROXIMITY_KAPPAS * p.kappa
    near_minus = d_minus <= CPB_PROXIMITY_KAPPAS * p.kappa
    if not (p.mu > p.kappa and (near_plus or near_minus)):
        return replace(pair, mechanism="UCPB", proximity="")
    plus = near_plus and (not near_minus or d_plus <= d_minus)
    prox = ("delta_plus" if plus else "delta_minus") + (
        "+both" if near_plus and near_minus else "")
    return replace(pair, mechanism="CPB", proximity=prox)


def pairs_to_json(pairs: list[OptimalPair]) -> str:
    return json.dumps([asdict(p) for p in pairs], indent=2)
