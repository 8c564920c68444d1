import json

import numpy as np
import pytest

import blockade.optimize
from blockade.amplitude import lambda_gamma
from blockade.model import SystemParams, strong_params, weak_params
from blockade.optimize import (NEWTON_FD_STEP, NEWTON_MAX_HALVINGS,
                               NEWTON_MAX_ITER, STRONG_GRID, WEAK_GRID,
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
    g = SearchGrid((-1.0, 1.0), (-1.0, 1.0), 4, 5)
    assert g.starts().shape == (20, 2)


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


def _search(preset, n_delta, n_lambda):
    """The residual, starts and tolerance of find_optimal_pairs, cavity 1."""
    p = preset()
    grid = WEAK_GRID if preset is weak_params else STRONG_GRID
    starts = SearchGrid(grid.delta_range, grid.lambda_range,
                        n_delta, n_lambda).starts()
    return (lambda x: target_residual_stack(x, p, 1)), starts, \
        1e-10 * p.drive_E ** 2


def _lone_newton(fun, x, tol):
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
        return x if np.linalg.norm(f) <= tol else None
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("preset, n_delta", [(weak_params, 4),
                                             (strong_params, 6)])
def test_lockstep_paths_equal_lone_newton(preset, n_delta):
    fun, starts, tol = _search(preset, n_delta, 4)
    paths = _newton_paths(fun, starts, tol)
    for x0, end in zip(starts, paths):
        ref = _lone_newton(fun, x0, tol)
        if ref is None:
            assert np.isnan(end).all()
        else:
            assert end.tobytes() == ref.tobytes()


def test_lockstep_starts_are_independent():
    # each start's path must not depend on which starts share its batch
    fun, starts, tol = _search(strong_params, 6, 4)
    full = _newton_paths(fun, starts, tol)
    order = np.random.default_rng(5).permutation(len(starts))
    for batch in np.array_split(order, 5):
        np.testing.assert_array_equal(_newton_paths(fun, starts[batch], tol),
                                      full[batch])


def _first_points(fun, start, tol):
    """What a lone start evaluates up to its first ladder: the start, its
    stencil points and its ladder points."""
    calls = []

    def recording(x):
        calls.append(x.copy())
        return fun(x)

    _newton_paths(recording, start[None], tol)
    return calls[:3]


@pytest.mark.filterwarnings("error")
def test_singular_point_on_a_path_drops_only_its_start(monkeypatch):
    fun, starts, tol = _search(weak_params, 4, 4)
    free = _newton_paths(fun, starts, tol)
    (x0,), stencil, ladder = _first_points(fun, starts[4], tol)
    norm0 = np.linalg.norm(fun(x0[None])[0])
    kept = next(k for k, f in enumerate(fun(ladder))
                if np.linalg.norm(f) < norm0)
    stack = blockade.optimize.steady_amplitude_stack
    # NaN amplitudes at: a stencil point (the start is dropped), the kept
    # ladder point (the start goes on from the next improving one, as a
    # lone start does), the ladder points past it (which a lone start never
    # evaluates, so nothing changes)
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
        paths = _newton_paths(fun, starts, tol)
        others = np.arange(len(starts)) != 4
        np.testing.assert_array_equal(paths[others], free[others])
        if moved == "dropped":
            assert np.isnan(paths[4]).all()
        elif moved == "lone":
            ref = _lone_newton(fun, starts[4], tol)
            assert paths[4].tobytes() == ref.tobytes()
            assert paths[4].tobytes() != free[4].tobytes()
        else:
            assert paths[4].tobytes() == free[4].tobytes()


def test_singular_jacobian_drops_its_start():
    # (x0^2 - 1, x1) has a singular Jacobian at x0 = 0
    def parabola(x):
        return np.column_stack([x[:, 0] ** 2 - 1.0, x[:, 1]])

    paths = _newton_paths(parabola, np.array([[0.0, 0.2], [2.0, 0.5],
                                              [-0.5, 0.1]]), 1e-12)
    assert np.isnan(paths[0]).all()
    np.testing.assert_allclose(paths[1:], [[1, 0], [-1, 0]], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_non_finite_iterate_drops_its_start(monkeypatch):
    fun, starts, tol = _search(weak_params, 4, 4)
    free = _newton_paths(fun, starts, tol)
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
    paths = _newton_paths(fun, starts, tol)
    assert np.isnan(paths[4]).all()
    others = np.arange(len(starts)) != 4
    np.testing.assert_array_equal(paths[others], free[others])
    grid = SearchGrid(WEAK_GRID.delta_range, WEAK_GRID.lambda_range, 4, 4)
    pairs = find_optimal_pairs(weak_params(), 1, grid, oracle_threshold=None)
    assert [q.delta_opt > 0 for q in pairs] == [True]


def test_no_roots_without_drive():
    assert find_optimal_pairs(weak_params(drive_E=0.0), 1, WEAK_GRID) == []


def test_weak_roots_uncertified():
    pairs = find_optimal_pairs(weak_params(), 1, WEAK_GRID,
                               oracle_threshold=None)
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
    coarse_roots = find_optimal_pairs(p, 1, base, oracle_threshold=None)
    fine_roots = find_optimal_pairs(p, 1, fine, oracle_threshold=None)
    for q in coarse_roots:
        dist = min(np.hypot(q.delta_opt - r.delta_opt,
                            q.lambda_opt - r.lambda_opt) for r in fine_roots)
        assert dist < 1e-8


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
