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

from dataclasses import asdict, dataclass, replace

import numpy as np

from .amplitude import g2_cavity_stack, steady_amplitude_stack
from .lindblad import steady_g2
from .model import (SolverError, SystemParams, check_cavity, check_range,
                    cpb_detunings, to_json)
# not called here; perfbench's tracer wraps it here by name
from .amplitude import steady_amplitudes  # noqa: F401

NEWTON_FD_STEP = 1e-9
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 20
DEDUPE_DIST = 1e-8
# the search stays inside the grid box widened by this share of its extent
BOX_PAD = 0.1
CPB_PROXIMITY_KAPPAS = 5.0
# a 1000 x 100 grid: the lockstep stacks peak near 420 MB, the search ~12 s
MAX_STARTS = 100_000
# a root is certified where the master-equation g2 at this cutoff is at most
# this threshold
ORACLE_THRESHOLD = 1e-2
ORACLE_CUTOFF = 4
# a Newton end is a root only where the hierarchy g2 of its cavity is at
# most this.  Ends far out, where the residual underflows with the one-photon
# amplitude, read NaN; the shipped searches' roots read 1e-33 to 6e-26, and
# the root at |J| = 500 kappa 6.7e-11 (its c10 is 1e-3 E, so its residual
# tolerance allows up to 2e-8)
ROOT_G2_MAX = 1e-6
# the largest residual entry whose squared norm stays finite
_F_MAX = np.sqrt(np.finfo(float).max / 2)
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
        counts = (self.n_delta, self.n_lambda)
        if not (all(isinstance(n, (int, np.integer)) for n in counts)
                and min(counts) >= 4 and counts[0] * counts[1] <= MAX_STARTS):
            raise ValueError("start counts must be integers >= 4 with at "
                             "most %d starts" % MAX_STARTS)

    def starts(self) -> np.ndarray:
        # as Python floats: linspace takes its dtype from the ends
        dd = np.linspace(*map(float, self.delta_range), self.n_delta)
        ll = np.linspace(*map(float, self.lambda_range), self.n_lambda)
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
    vanishes exactly where the published optimal-pair condition holds:
    the one-point case of ``target_residual_stack``.
    """
    return complex(*target_residual_stack(np.array([[delta, lam]]), p,
                                          cavity)[0])


def target_residual_stack(x: np.ndarray, p: SystemParams, cavity: int
                          ) -> np.ndarray:
    """``target_residual`` at each row (delta, lambda) of x, as (N, 2) rows
    (real, imag)."""
    check_cavity(cavity)
    if p.theta != 0.0 or p.phi != 0.0:
        raise ValueError("target_residual requires theta = phi = 0")
    c = steady_amplitude_stack(p, delta=-x[:, 0], lambda_gain=x[:, 1])
    c = np.conj(c[:, 5 if cavity == 1 else 4])          # c20 or c02
    return np.stack([c.real, c.imag], axis=1)


def _evaluate(fun, x: np.ndarray) -> np.ndarray:
    """fun at the finite points (last axis) of x; NaN rows at the others,
    and where fun's row has an entry of at least _F_MAX: not finite, or so
    large (as at a gain near 1e308) that its squared norm would overflow."""
    ok = np.isfinite(x).all(axis=-1)
    f = np.full(x.shape, np.nan)
    if ok.any():
        f[ok] = fun(x[ok])
        f[~(np.abs(f) < _F_MAX).all(axis=-1)] = np.nan
    return f


def _norms(f: np.ndarray) -> np.ndarray:
    # as np.linalg.norm of each vector: both take the BLAS dot, where
    # norm(f, axis=-1) sums the squares and can differ by an ulp
    return np.sqrt((f[..., None, :] @ f[..., None])[..., 0, 0])


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """jac^-1 (-f) per row; NaN rows where jac is singular, which are those
    with the zero LU pivot that solve refuses (slogdet's sign 0)."""
    with np.errstate(invalid="ignore"):     # slogdet of a NaN row warns
        regular = np.linalg.slogdet(jac)[0] != 0
    step = np.full(f.shape, np.nan)
    step[regular] = np.linalg.solve(jac[regular],
                                    -f[regular, :, None])[:, :, 0]
    return step


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


def find_optimal_pairs(p: SystemParams, cavity: int, grid: SearchGrid,
                       keep_uncertified: bool = False) -> list[OptimalPair]:
    """All distinct antibunching roots reachable from the grid starts.

    Newton runs from all starts in lockstep on ``target_residual_stack``
    inside the grid box widened by BOX_PAD on each side (see the module
    docstring).  Its ends are deduplicated in start order and sorted by
    delta.  An end is a root only where the hierarchy g2 of its cavity, from
    one ``steady_amplitude_stack`` call over the ends, is at most
    ROOT_G2_MAX (not NaN).  That stack gives the roots' residuals too, as
    the moduli of their target amplitudes, and one ``steady_g2`` call per
    root the master-equation g2 of its cavity.

    A returned pair is certified by the master-equation oracle: roots whose
    exact g2 at the drive ``p.drive_E`` and cutoff ``ORACLE_CUTOFF`` is not
    at most ``ORACLE_THRESHOLD`` are dropped.  Both are fixed, so a
    certificate means one thing.  A root zeroes the two-photon amplitude of
    the n1 + n2 <= 2 hierarchy only; at finite drive the exact g2 there is
    not zero but scales as (E/kappa)^2, so certification depends on the
    drive: at the weak preset (E = 0.02 kappa) the 2nd and 3rd roots sit at
    ~1.1e-2 and are dropped, while at half that drive with lambda quartered
    (lambda_opt scales as E^2) they sit at ~3e-3.  Roots on two-photon
    resonances, where the hierarchy breaks down entirely, are dropped too.
    A root whose oracle solve fails (a SolverError: SingularLiouvillianError
    and its subclasses, UnphysicalStateError, EmptyModeError) gets g2_check
    NaN, and is dropped as well.  ``keep_uncertified`` keeps every root,
    each with its oracle g2; ``steady_g2`` of a pair checks it at another
    cutoff.  A cavity other than 1 and 2 raises before the search.
    """
    check_cavity(cavity)
    if p.drive_E <= 0:
        return []
    tol = 1e-10 * p.drive_E ** 2

    box = np.array([grid.delta_range, grid.lambda_range])  # (lo, hi) rows
    box = box + BOX_PAD * np.diff(box) * [-1, 1]
    ends = _newton_paths(lambda x: target_residual_stack(x, p, cavity),
                         grid.starts(), box, tol)
    roots: list[np.ndarray] = []
    for x in ends[~np.isnan(ends[:, 0])]:
        # hypot scales before it squares: ends 1e200 apart have a finite
        # distance, where norm's dot overflows
        if all(np.hypot(*(x - r)) >= DEDUPE_DIST for r in roots):
            roots.append(x)

    ordered = np.reshape(sorted(roots, key=lambda r: r[0]), (-1, 2))
    amps = steady_amplitude_stack(p, delta=-ordered[:, 0],
                                  lambda_gain=ordered[:, 1])
    kept = g2_cavity_stack(amps, cavity)[0] <= ROOT_G2_MAX
    pairs = []
    for x, c in zip(ordered[kept], amps[kept, 5 if cavity == 1 else 4]):
        try:
            g2 = steady_g2(p.replace(delta=-x[0], lambda_gain=x[1]),
                           cutoff=ORACLE_CUTOFF)[cavity - 1]
        except SolverError:
            g2 = np.nan
        if not (keep_uncertified or g2 <= ORACLE_THRESHOLD):
            continue
        pair = OptimalPair(*map(float, x), residual=abs(complex(c)),
                           cavity=cavity, g2_check=g2)
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
    """The pairs as a JSON list; an uncertified NaN g2_check as null."""
    return to_json([dict(asdict(q), g2_check=None if np.isnan(q.g2_check)
                         else q.g2_check) for q in pairs])
