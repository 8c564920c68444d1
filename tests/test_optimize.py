import json

import numpy as np
import pytest

from blockade.amplitude import lambda_gamma
from blockade.model import SystemParams, strong_params, weak_params
from blockade.optimize import (STRONG_GRID, WEAK_GRID, OptimalPair, SearchGrid,
                               classify_mechanism, closed_form_roots,
                               find_optimal_pairs, pairs_to_json,
                               target_residual)

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
    assert tagged.mechanism == "CPB" and tagged.proximity.endswith("+both")
    # unresolved nonlinearity (mu < kappa) can never be conventional blockade
    weak_tag = classify_mechanism(OptimalPair(weak_params().mu, 1e-6, 0.0,
                                              1, 1e-3), weak_params())
    assert weak_tag.mechanism == "UCPB"
    # far from both resonances
    far = classify_mechanism(OptimalPair(0.5, 1e-6, 0.0, 1, 1e-3),
                             strong_params())
    assert far.mechanism == "UCPB"


def test_closed_form_roots_match_solver_roots():
    # the printed closed forms for cavity 1 share the solve-path root set
    grid = SearchGrid((-0.005, 0.005), (-2e-6, 2e-6), 8, 4)
    p = weak_params()
    analytic = closed_form_roots(p, 1, grid)
    solver = find_optimal_pairs(p, 1, grid, oracle_threshold=None)
    for d, l in analytic:
        if not (-0.006 < d < 0.006):
            continue
        dist = min(np.hypot(d - q.delta_opt, l - q.lambda_opt)
                   for q in solver)
        assert dist < 1e-6


def test_pairs_to_json_fields():
    pairs = [OptimalPair(0.024, 1.1e-6, 1e-21, 1, 5e-4, "CPB", "delta_minus")]
    data = json.loads(pairs_to_json(pairs))
    assert data == [{"delta_opt": 0.024, "lambda_opt": 1.1e-6,
                     "residual": 1e-21, "cavity": 1, "g2_check": 5e-4,
                     "mechanism": "CPB", "proximity": "delta_minus"}]
