import json

import numpy as np
import pytest

import blockade.lindblad
import blockade.optimize
from blockade.amplitude import lambda_gamma
from blockade.cli import cli_main
from blockade.lindblad import (EmptyModeError, SteadyStateConvergenceError,
                               UnphysicalStateError)
from blockade.model import SystemParams, strong_params, weak_params
from blockade.optimize import (BOX_PAD, MAX_STARTS, NEWTON_FD_STEP,
                               NEWTON_MAX_HALVINGS, NEWTON_MAX_ITER,
                               ORACLE_CUTOFF, STRONG_GRID, WEAK_GRID,
                               OptimalPair, SearchGrid, _newton_paths, _norms,
                               classify_mechanism, find_optimal_pairs,
                               pairs_to_json, target_residual,
                               target_residual_stack)

# Published optimal pairs on the reporting axis (cavity 1).
WEAK_PAIR = (-0.73e-4, 0.93e-6)
STRONG_PAIRS = (2.4e-2, 5.6e-2)


def test_search_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid((0.01, -0.01), (-5e-6, 5e-6))
    with pytest.raises(ValueError):
        SearchGrid((-0.01, 0.01), (5e-6, -5e-6))
    with pytest.raises(ValueError):
        SearchGrid((-0.01, 0.01), (-5e-6, 5e-6), n_delta=2)
    # a non-integer count would fail only in the search, in numpy
    for counts in ((4.5, 4), (4, 4.0)):
        with pytest.raises(ValueError, match="integers"):
            SearchGrid((-0.01, 0.01), (-5e-6, 5e-6), *counts)
    assert SearchGrid((-1.0, 1.0), (-1.0, 1.0), np.int64(4),
                      np.int32(5)).starts().shape == (20, 2)
    g = SearchGrid((-1.0, 1.0), (-1.0, 1.0), 4, 5)
    assert g.starts().shape == (20, 2)


def test_float32_range_ends_give_the_starts_of_their_python_floats():
    # linspace would take float32 from the ends: -0.0033333334140479565
    # where the Python floats give -0.003333333258827527
    ends = (np.float32(-0.01), np.float32(0.01))
    got, want = (SearchGrid(d, (-5e-6, 5e-6), 4, 4).starts()
                 for d in (ends, tuple(map(float, ends))))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_search_grid_rejects_oversized_start_counts():
    # the bound sits on the product: the lockstep stacks grow with it
    SearchGrid((-0.01, 0.01), (-5e-6, 5e-6), MAX_STARTS // 100, 100)
    for counts in ((MAX_STARTS // 4 + 1, 4), (4, MAX_STARTS // 4 + 1),
                   (4, 10 ** 8), (10 ** 5, 10 ** 5)):
        with pytest.raises(ValueError, match="at most %d starts" % MAX_STARTS):
            SearchGrid((-0.01, 0.01), (-5e-6, 5e-6), *counts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("end", range(4))
def test_search_grid_rejects_non_finite_range_ends(bad, end):
    ends = [-0.01, 0.01, -5e-6, 5e-6]
    ends[end] = bad
    with pytest.raises(ValueError, match="finite"):
        SearchGrid(tuple(ends[:2]), tuple(ends[2:]))


def test_target_residual_linear_limit():
    # no gain, no hopping, no Kerr: residual is the coherent pair amplitude
    p = SystemParams(drive_E=4e-5, kappa=0.002)
    delta = 2e-3
    lam_den, _ = lambda_gamma(p.replace(delta=delta))
    expect = p.drive_E ** 2 / (np.sqrt(2) * lam_den ** 2)
    got = target_residual(delta, 0.0, p, cavity=1)
    assert got == pytest.approx(expect, rel=1e-9)


def test_target_residual_gain_dominates_at_tiny_drive():
    # as E -> 0 with fixed gain, the pair amplitude tends to the pure
    # parametric-gain value, which does not vanish
    p = weak_params()
    vals = [abs(target_residual(1e-3, 1e-6, p.replace(drive_E=e), 1))
            for e in (1e-10, 1e-12)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-4)
    assert vals[1] > 1e-7           # far above the E^2 scale ~1e-24


def test_target_residual_vanishes_at_weak_optimum():
    p = weak_params()
    r_opt = abs(target_residual(*WEAK_PAIR, p, cavity=1))
    r_off = abs(target_residual(WEAK_PAIR[0], 0.0, p, cavity=1))
    assert r_opt < 1e-2 * r_off


def test_target_residual_requires_zero_phases():
    with pytest.raises(ValueError):
        target_residual(0.0, 0.0, weak_params(theta=0.3), 1)
    with pytest.raises(ValueError):
        target_residual_stack(np.zeros((1, 2)), weak_params(phi=0.3), 1)


@pytest.mark.parametrize("preset, cavity", [(weak_params, 1),
                                            (strong_params, 2)])
def test_residual_stack_equals_target_residual(preset, cavity):
    rng = np.random.default_rng(200)
    x = np.column_stack([rng.uniform(-0.1, 0.1, 200),
                         rng.uniform(-5e-6, 5e-6, 200)])
    p = preset()
    f = target_residual_stack(x, p, cavity)
    for (delta, lam), row, norm in zip(x, f, _norms(f)):
        r = target_residual(delta, lam, p, cavity)
        assert row.tobytes() == np.array([r.real, r.imag]).tobytes()
        assert norm == np.linalg.norm(row)      # as _newton_paths compares


def _padded_box(grid):
    """The (lo, hi) rows of the grid box widened by BOX_PAD on each side."""
    box = np.array([grid.delta_range, grid.lambda_range])
    return box + BOX_PAD * np.diff(box) * [-1, 1]


def _inside(x, box):
    return ((box[:, 0] <= x) & (x <= box[:, 1])).all(axis=-1)


def _search(preset, n_delta, n_lambda):
    """The residual, starts, box and tolerance of find_optimal_pairs,
    cavity 1."""
    p = preset()
    grid = WEAK_GRID if preset is weak_params else STRONG_GRID
    starts = SearchGrid(grid.delta_range, grid.lambda_range,
                        n_delta, n_lambda).starts()
    return (lambda x: target_residual_stack(x, p, 1)), starts, \
        _padded_box(grid), 1e-10 * p.drive_E ** 2


def _lone_newton(fun, x, box, tol):
    """Damped Newton from one start, one point at a time: the reference
    path of ``_newton_paths``.  None where a start is dropped."""
    def res(y):         # NaN at non-finite points, as _newton_paths has it
        return fun(y[None])[0] if np.isfinite(y).all() else np.full(2, np.nan)

    try:
        f = res(x)
        for _ in range(NEWTON_MAX_ITER):
            if np.linalg.norm(f) <= tol:
                return x
            jac = np.empty((2, 2))
            for i in range(2):
                dx = np.zeros(2)
                dx[i] = NEWTON_FD_STEP
                jac[:, i] = (res(x + dx) - res(x - dx)) / (2 * NEWTON_FD_STEP)
            step = np.linalg.solve(jac, -f)
            scale = 1.0
            for _ in range(NEWTON_MAX_HALVINGS):
                f_new = res(x + scale * step)
                if np.linalg.norm(f_new) < np.linalg.norm(f):
                    break
                scale *= 0.5
            else:
                return None
            x, f = x + scale * step, f_new
            if not _inside(x, box):
                return None
        return x if np.linalg.norm(f) <= tol else None
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("preset, n_delta", [(weak_params, 4),
                                             (strong_params, 6)])
def test_lockstep_paths_equal_lone_newton(preset, n_delta):
    fun, starts, box, tol = _search(preset, n_delta, 4)
    paths = _newton_paths(fun, starts, box, tol)
    for x0, end in zip(starts, paths):
        ref = _lone_newton(fun, x0, box, tol)
        if ref is None:
            assert np.isnan(end).all()
        else:
            assert end.tobytes() == ref.tobytes()


def test_lockstep_starts_are_independent():
    # each start's path must not depend on which starts share its batch
    fun, starts, box, tol = _search(strong_params, 6, 4)
    full = _newton_paths(fun, starts, box, tol)
    order = np.random.default_rng(5).permutation(len(starts))
    for batch in np.array_split(order, 5):
        np.testing.assert_array_equal(
            _newton_paths(fun, starts[batch], box, tol), full[batch])


def _first_points(fun, start, box, tol):
    """A lone start's first points: the start, its stencil points and its
    whole halving ladder.  The recording fails the full step, so the other
    scales follow in a second call."""
    calls = []

    def recording(x):
        calls.append(x.copy())
        return fun(x) if len(calls) != 3 else np.full(x.shape, np.nan)

    _newton_paths(recording, start[None], box, tol)
    assert [len(c) for c in calls[:4]] == [1, 4, 1, NEWTON_MAX_HALVINGS - 1]
    return calls[0], calls[1], np.concatenate(calls[2:4])


@pytest.mark.filterwarnings("error")
def test_singular_point_on_a_path_drops_only_its_start(monkeypatch):
    fun, starts, box, tol = _search(weak_params, 4, 4)
    free = _newton_paths(fun, starts, box, tol)
    (x0,), stencil, ladder = _first_points(fun, starts[4], box, tol)
    norm0 = np.linalg.norm(fun(x0[None])[0])
    kept = next(k for k, f in enumerate(fun(ladder))
                if np.linalg.norm(f) < norm0)
    stack = blockade.optimize.steady_amplitude_stack
    # NaN amplitudes at: a stencil point (the start is dropped), the kept
    # ladder point (the start goes on from the next improving one, as a
    # lone start does), the ladder points past it (which a lone start never
    # evaluates, so nothing changes)
    assert kept < NEWTON_MAX_HALVINGS - 1
    for at_nan, moved in ((stencil[2:3], "dropped"),
                          (ladder[kept:kept + 1], "lone"),
                          (ladder[kept + 1:], "unchanged")):
        def nan_there(p, at_nan=at_nan, **arrays):
            c = stack(p, **arrays)
            at = ((arrays["delta"][:, None] == -at_nan[:, 0])
                  & (arrays["lambda_gain"][:, None] == at_nan[:, 1]))
            c[at.any(axis=1)] = np.nan
            return c

        monkeypatch.setattr(blockade.optimize, "steady_amplitude_stack",
                            nan_there)
        paths = _newton_paths(fun, starts, box, tol)
        others = np.arange(len(starts)) != 4
        np.testing.assert_array_equal(paths[others], free[others])
        if moved == "dropped":
            assert np.isnan(paths[4]).all()
        elif moved == "lone":
            ref = _lone_newton(fun, starts[4], box, tol)
            assert paths[4].tobytes() == ref.tobytes()
            assert paths[4].tobytes() != free[4].tobytes()
        else:
            assert paths[4].tobytes() == free[4].tobytes()


def test_singular_jacobian_drops_its_start():
    # (x0^2 - 1, x1) has a singular Jacobian at x0 = 0
    def parabola(x):
        return np.column_stack([x[:, 0] ** 2 - 1.0, x[:, 1]])

    starts = np.array([[0.0, 0.2], [2.0, 0.5], [-0.5, 0.1]])
    paths = _newton_paths(parabola, starts, np.array([[-3, 3], [-1, 1]]),
                          1e-12)
    assert np.isnan(paths[0]).all()
    np.testing.assert_allclose(paths[1:], [[1, 0], [-1, 0]], atol=1e-12)


def test_path_leaving_the_box_drops_its_start():
    # the first step from x0 = -0.5 lands at x0 = -1.25, outside the box:
    # the start is dropped there, though its path goes on to x0 = -1
    def parabola(x):
        return np.column_stack([x[:, 0] ** 2 - 1.0, x[:, 1]])

    starts = np.array([[2.0, 0.5], [-0.5, 0.1]])
    free = _newton_paths(parabola, starts, np.array([[-3, 3], [-1, 1]]),
                         1e-12)
    np.testing.assert_allclose(free, [[1, 0], [-1, 0]], atol=1e-12)
    paths = _newton_paths(parabola, starts, np.array([[-1.2, 3], [-1, 1]]),
                          1e-12)
    assert paths[0].tobytes() == free[0].tobytes()
    assert np.isnan(paths[1]).all()


@pytest.mark.filterwarnings("error")
def test_non_finite_iterate_drops_its_start(monkeypatch):
    fun, starts, box, tol = _search(weak_params, 4, 4)
    free = _newton_paths(fun, starts, box, tol)
    assert np.isfinite(free[4]).all()       # the start of the weak root
    stack = blockade.optimize.steady_amplitude_stack

    def overflowing(p, **arrays):
        # the pair amplitude overflows at that start, so its Newton step
        # and the next iterate are not finite
        c = stack(p, **arrays)
        at = ((arrays["delta"] == -starts[4, 0])
              & (arrays["lambda_gain"] == starts[4, 1]))
        c[at, 5] = np.inf
        return c

    monkeypatch.setattr(blockade.optimize, "steady_amplitude_stack",
                        overflowing)
    paths = _newton_paths(fun, starts, box, tol)
    assert np.isnan(paths[4]).all()
    others = np.arange(len(starts)) != 4
    np.testing.assert_array_equal(paths[others], free[others])
    grid = SearchGrid(WEAK_GRID.delta_range, WEAK_GRID.lambda_range, 4, 4)
    pairs = find_optimal_pairs(weak_params(), 1, grid, keep_uncertified=True)
    assert [q.delta_opt > 0 for q in pairs] == [True]


def test_overflowing_residuals_drop_their_starts():
    # near lambda = 1e308 a residual is not finite or too large to square:
    # those starts fail quietly, and the lambda = 0 starts keep their root
    grid = SearchGrid((0.0, 0.05), (0.0, 1e308), 4, 4)
    [pair] = find_optimal_pairs(weak_params(), 1, grid)
    assert (pair.delta_opt, pair.lambda_opt) == pytest.approx(
        SHIPPED_ROOTS[weak_params, 1][0], rel=1e-12, abs=0)


def test_no_roots_without_drive():
    assert find_optimal_pairs(weak_params(drive_E=0.0), 1, WEAK_GRID) == []


def test_weak_roots_uncertified():
    pairs = find_optimal_pairs(weak_params(), 1, WEAK_GRID,
                               keep_uncertified=True)
    assert len(pairs) >= 3
    deltas = [q.delta_opt for q in pairs]
    assert deltas == sorted(deltas)
    best = min(pairs, key=lambda q: abs(q.delta_opt - WEAK_PAIR[0]))
    assert best.delta_opt == pytest.approx(WEAK_PAIR[0], rel=0.3)
    assert best.lambda_opt == pytest.approx(WEAK_PAIR[1], rel=0.3)
    assert best.g2_check < 1e-2
    assert best.mechanism == "UCPB"
    for q in pairs:
        assert q.residual <= 1e-10 * weak_params().drive_E ** 2
        assert q.cavity == 1


def test_weak_certified_keeps_only_deep_roots():
    pairs = find_optimal_pairs(weak_params(), 1, WEAK_GRID)
    assert all(q.g2_check <= 1e-2 for q in pairs)
    assert any(abs(q.delta_opt - WEAK_PAIR[0]) < 0.3 * abs(WEAK_PAIR[0])
               for q in pairs)


def test_strong_roots_certified():
    pairs = find_optimal_pairs(strong_params(), 1, STRONG_GRID)
    assert len(pairs) >= 2
    deltas = np.array([q.delta_opt for q in pairs])
    for target in STRONG_PAIRS:
        k = int(np.argmin(np.abs(deltas - target)))
        assert deltas[k] == pytest.approx(target, rel=0.3)
        assert pairs[k].mechanism == "CPB"
        assert pairs[k].g2_check <= 1e-2
    # hybridized single-photon resonances mu -/+ J label the two dips
    lbl = {round(q.delta_opt, 3): q.proximity for q in pairs
           if q.mechanism == "CPB"}
    assert lbl.get(0.024, "").startswith("delta_minus")
    assert lbl.get(0.056, "").startswith("delta_plus")


def test_grid_refinement_stable():
    base = SearchGrid((-0.005, 0.005), (-2e-6, 2e-6), 8, 4)
    fine = SearchGrid((-0.005, 0.005), (-2e-6, 2e-6), 16, 8)
    p = weak_params()
    coarse_roots = find_optimal_pairs(p, 1, base, keep_uncertified=True)
    fine_roots = find_optimal_pairs(p, 1, fine, keep_uncertified=True)
    for q in coarse_roots:
        dist = min(np.hypot(q.delta_opt - r.delta_opt,
                            q.lambda_opt - r.lambda_opt) for r in fine_roots)
        assert dist < 1e-8


# Every root of the shipped searches before the box exit and the lazy
# ladder, (delta, lambda) on the reporting axis, in the order returned.
SHIPPED_ROOTS = {
    (weak_params, 1): [(-7.279568965480264e-05, 9.27452168605352e-07),
                       (0.00151162109051673, -1.1986973896279644e-07),
                       (0.003272836361529892, 1.4699739114813168e-06)],
    (weak_params, 2): [(-0.0007432139267407497, 3.260195588159094e-07),
                       (0.002086546314307303, -7.887751752288261e-07),
                       (0.004679667315568667, 3.971612922330554e-07)],
    (strong_params, 1): [(0.023993804331596272, 1.0839439465776668e-06),
                         (0.03997539799955323, -7.896841754058833e-07),
                         (0.056006516296004956, 1.464288642820695e-06),
                         (0.08047790959018494, -1.2175249796222908e-07),
                         (0.08232196720899329, -2.1854541692827382e-08)],
    (strong_params, 2): [(0.023916430137933493, 5.078160291359158e-07),
                         (0.040024821993646674, -7.96896746485162e-07),
                         (0.05632658770150581, 1.182557737581986e-07),
                         (0.059697618565538825, 7.802846351769398e-09),
                         (0.08003454160137516, 1.520946912166346e-07)],
}


@pytest.mark.parametrize("preset, cavity", list(SHIPPED_ROOTS))
def test_shipped_searches_keep_their_roots(preset, cavity):
    grid = WEAK_GRID if preset is weak_params else STRONG_GRID
    pairs = find_optimal_pairs(preset(), cavity, grid, keep_uncertified=True)
    roots = SHIPPED_ROOTS[preset, cavity]
    assert len(pairs) == len(roots)
    for q, (delta, lam) in zip(pairs, roots):
        assert q.delta_opt == pytest.approx(delta, rel=1e-12, abs=0)
        assert q.lambda_opt == pytest.approx(lam, rel=1e-12, abs=0)


@pytest.mark.parametrize("preset, cavity", list(SHIPPED_ROOTS))
def test_oracle_converges_in_a_dozen_steps_at_the_shipped_roots(
        monkeypatch, preset, cavity):
    # the oracle's step budget, free of timing: at most 11 jump-map steps
    # per root (up to 27 while the stall test needed 16 steps of history)
    roots = SHIPPED_ROOTS[preset, cavity]
    points = [preset().replace(delta=-delta, lambda_gain=lam)
              for delta, lam in roots]
    want = [blockade.optimize.steady_g2(p, cutoff=4) for p in points]
    monkeypatch.setattr(blockade.lindblad, "MAX_ITERATIONS", 12)
    assert [blockade.optimize.steady_g2(p, cutoff=4) for p in points] == want


@pytest.mark.parametrize("preset, grid", [(weak_params, WEAK_GRID),
                                          (strong_params, STRONG_GRID)])
def test_stencils_centre_on_iterates_in_the_padded_box(monkeypatch, preset,
                                                       grid):
    calls = []

    def recording(x, p, cavity):
        calls.append((x.copy(), target_residual_stack(x, p, cavity)))
        return calls[-1][1]

    monkeypatch.setattr(blockade.optimize, "target_residual_stack",
                        recording)
    pairs = find_optimal_pairs(preset(), 1, grid, keep_uncertified=True)
    *calls, (roots, _) = calls      # the last: the residuals of the roots
    assert roots.tolist() == [[q.delta_opt, q.lambda_opt] for q in pairs]
    box = _padded_box(grid)
    starts, f_starts = calls[0]
    norm = dict(zip(map(bytes, starts), _norms(f_starts)))
    i = 1
    while i < len(calls):
        stencil, _ = calls[i]
        # rows x + dx_0, x + dx_1, x - dx_0, x - dx_1: x + dx_i keeps the
        # other coordinate of x exactly
        pts = stencil.reshape(-1, 4, 2)
        centre = np.column_stack([pts[:, 1, 0], pts[:, 0, 1]])
        dx = NEWTON_FD_STEP * np.eye(2)
        np.testing.assert_array_equal(
            pts, centre[:, None] + np.concatenate([dx, -dx]))
        assert _inside(centre, box).all()
        # an iterate: a start or an accepted ladder point
        norm0 = np.array([norm[bytes(x)] for x in centre])
        full, f_full = calls[i + 1]
        assert len(full) == len(centre)
        short = ~(_norms(f_full) < norm0)
        ladder = np.repeat(full[:, None], NEWTON_MAX_HALVINGS, axis=1)
        f_ladder = np.repeat(f_full[:, None], NEWTON_MAX_HALVINGS, axis=1)
        i += 2
        if short.any():         # the other scales of the failed steps only
            rest, f_rest = calls[i]
            shape = (short.sum(), NEWTON_MAX_HALVINGS - 1, 2)
            ladder[short, 1:] = rest.reshape(shape)
            f_ladder[short, 1:] = f_rest.reshape(shape)
            i += 1
        better = _norms(f_ladder) < norm0[:, None]
        for row, f, ok in zip(ladder, f_ladder, better):
            if ok.any():
                k = ok.argmax()
                norm[bytes(row[k])] = _norms(f[k])


def test_classify_mechanism_rules():
    pair = OptimalPair(0.04, 1e-6, 0.0, 1, 1e-3)
    # resolved Kerr and right on the degenerate mu +/- J resonance
    tagged = classify_mechanism(pair, strong_params(hop_J=0.0))
    assert tagged.mechanism == "CPB" and tagged.proximity == "delta_plus+both"
    # both resonances within 5 kappa: the closer one is annotated
    q = strong_params(hop_J=0.002)
    closer = classify_mechanism(OptimalPair(q.mu - q.hop_J, 1e-6, 0.0, 1,
                                            1e-3), q)
    assert closer.proximity == "delta_minus+both"
    assert closer.delta_opt == q.mu - q.hop_J and closer.g2_check == 1e-3
    # unresolved nonlinearity (mu < kappa) can never be conventional blockade
    weak_tag = classify_mechanism(OptimalPair(weak_params().mu, 1e-6, 0.0,
                                              1, 1e-3), weak_params())
    assert weak_tag.mechanism == "UCPB"
    # far from both resonances
    far = classify_mechanism(OptimalPair(0.5, 1e-6, 0.0, 1, 1e-3),
                             strong_params())
    assert far.mechanism == "UCPB"


def test_pairs_to_json_fields():
    pairs = [OptimalPair(0.024, 1.1e-6, 1e-21, 1, 5e-4, "CPB", "delta_minus")]
    data = json.loads(pairs_to_json(pairs))
    assert data == [{"delta_opt": 0.024, "lambda_opt": 1.1e-6,
                     "residual": 1e-21, "cavity": 1, "g2_check": 5e-4,
                     "mechanism": "CPB", "proximity": "delta_minus"}]


@pytest.mark.parametrize("cavity", [0, 3])
def test_cavity_must_be_1_or_2_before_any_solve(monkeypatch, cavity):
    # any cavity but 1 read cavity 2's amplitude, and the oracle's index
    # then picked another entry of (g2_1, g2_2, n1, n2)
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the cavity")

    for name in ("steady_amplitude_stack", "steady_amplitudes", "steady_g2"):
        monkeypatch.setattr(blockade.optimize, name, no_solve)
    p = weak_params()
    for call in (lambda: find_optimal_pairs(p, cavity, WEAK_GRID),
                 lambda: find_optimal_pairs(p.replace(drive_E=0.0), cavity,
                                            WEAK_GRID),
                 lambda: target_residual(0.0, 0.0, p, cavity),
                 lambda: target_residual_stack(np.zeros((1, 2)), p, cavity)):
        with pytest.raises(ValueError, match="cavity must be 1 or 2"):
            call()


@pytest.mark.parametrize("failure", [
    SteadyStateConvergenceError("no convergence"),
    UnphysicalStateError("negative eigenvalue"),
    EmptyModeError("mode occupation underflows"),
    None,                                   # no error, but a NaN g2
])
def test_failed_oracle_solve_leaves_its_root_uncertified(monkeypatch,
                                                          failure):
    # one oracle call per root either way; a failed one drops the root,
    # or keeps it with a NaN g2_check (JSON null) when nothing is dropped
    calls = []

    def oracle(p, cutoff):
        calls.append(p)
        if failure is not None:
            raise failure
        return (np.nan,) * 4

    monkeypatch.setattr(blockade.optimize, "steady_g2", oracle)
    grid = SearchGrid(WEAK_GRID.delta_range, WEAK_GRID.lambda_range, 4, 4)
    assert find_optimal_pairs(weak_params(), 1, grid) == []
    roots = len(calls)
    assert roots >= 1
    kept = find_optimal_pairs(weak_params(), 1, grid, keep_uncertified=True)
    assert len(kept) == roots and len(calls) == 2 * roots
    assert all(np.isnan(q.g2_check) for q in kept)
    assert all(q["g2_check"] is None
               for q in json.loads(pairs_to_json(kept)))


def test_oracle_solves_at_the_oracle_cutoff(monkeypatch):
    # the certificate has one truncation, whatever the search keeps
    cutoffs = []

    def recording(p, cutoff):
        cutoffs.append(cutoff)
        return blockade.lindblad.steady_g2(p, cutoff=cutoff)

    monkeypatch.setattr(blockade.optimize, "steady_g2", recording)
    for keep in (False, True):
        find_optimal_pairs(weak_params(), 1, WEAK_GRID, keep_uncertified=keep)
    assert len(cutoffs) == 2 * len(SHIPPED_ROOTS[weak_params, 1])
    assert set(cutoffs) == {ORACLE_CUTOFF}


def test_numpy_integer_cavity_writes_its_pairs():
    # check_cavity takes np.int64(1); the pairs keep it, and their JSON
    # writes it as 1, as for the Python int
    grid = SearchGrid(WEAK_GRID.delta_range, WEAK_GRID.lambda_range, 4, 4)
    texts = [pairs_to_json(find_optimal_pairs(weak_params(), cavity, grid))
             for cavity in (np.int64(1), 1)]
    assert texts[0] == texts[1] and '"cavity": 1,' in texts[0]


def test_oracle_converges_at_the_large_hopping_root(capsys):
    # at |J| = 500 kappa the jump map converges at the box's one root
    # (reporting delta 0.039975, lambda -7.99e-7), where cavity 1 holds
    # 1.3e-12 photons and its g2 reads 19.14: above ORACLE_THRESHOLD
    argv = ["optimize", "--preset", "strong", "--J", "-1",
            "--starts", "4", "4"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out) == []
    assert cli_main(argv + ["--keep-uncertified"]) == 0
    [root] = json.loads(capsys.readouterr().out)
    assert root["delta_opt"] == pytest.approx(0.039975, rel=1e-4)
    assert root["g2_check"] == pytest.approx(19.143, rel=1e-4)
