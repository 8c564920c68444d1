"""The Kerr reduction of ``blockade.model`` against explicit mechanical
modes (``phonon_reference``): exact without optomechanical coupling, and
how far the first optimal pair of each preset survives the mechanics."""

import numpy as np
import pytest
from phonon_reference import best_gain, g2

from blockade.amplitude import g2_cavity_stack, steady_amplitude_stack
from blockade.model import strong_params, weak_params

# the first shipped root of each preset's cavity-1 search, (delta, lambda)
# on the reporting axis, and the phonon g2_1 there at m_max = 4
FIRST_ROOTS = {
    weak_params: ((-7.279568965480264e-05, 9.27452168605352e-07), 1.028e-5),
    strong_params: ((0.023993804331596272, 1.0839439465776668e-06),
                    2.185e-3),
}


def _at_root(preset):
    (delta, lam), _ = FIRST_ROOTS[preset]
    return preset(delta=-delta, lambda_gain=lam)


def test_uncoupled_mechanics_gives_the_hierarchy():
    # at g_om = 0 the phonons stay in their ground state and mu = 0, so
    # drive, gain, hopping and phases must give the hierarchy's g2
    rng = np.random.default_rng(16)
    for _ in range(6):
        p = weak_params(g_om=0.0, delta=rng.uniform(-0.01, 0.01),
                        lambda_gain=rng.uniform(-5e-6, 5e-6),
                        theta=rng.uniform(0, 2 * np.pi),
                        phi=rng.uniform(0, 2 * np.pi))
        c = steady_amplitude_stack(p)
        for cavity in (1, 2):
            want = g2_cavity_stack(c, cavity)[0][0]
            assert g2(p, 4, cavity) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("preset", list(FIRST_ROOTS))
def test_phonon_cutoff_is_converged(preset):
    p = _at_root(preset)
    values = [g2(p, m_max) for m_max in (4, 6, 8)]
    assert values[0] == pytest.approx(values[2], rel=1e-4, abs=0)
    assert values[1] == pytest.approx(values[2], rel=1e-4, abs=0)


@pytest.mark.parametrize("preset", list(FIRST_ROOTS))
def test_roots_keep_a_drive_free_pair_amplitude(preset):
    # the Kerr hierarchy reads g2_1 < 1e-31 at its roots; with the phonons
    # the sidebands c_20m leave a floor, the same at E/2, lambda/4
    p = _at_root(preset)
    value = g2(p)
    assert value == pytest.approx(FIRST_ROOTS[preset][1], rel=1e-3)
    half = p.replace(drive_E=p.drive_E / 2, lambda_gain=p.lambda_gain / 4)
    assert g2(half) == pytest.approx(value, rel=1e-12)


def _least_g2(p, width):
    """(delta, lambda, g2) at the least phonon g2_1 within width of p.delta:
    a golden-section search over delta, with the best lambda at each."""
    def f(delta):
        return best_gain(p.replace(delta=delta))[1]

    r = (np.sqrt(5) - 1) / 2
    lo, hi = p.delta - width, p.delta + width
    x = [hi - r * (hi - lo), lo + r * (hi - lo)]
    fx = [f(x[0]), f(x[1])]
    while hi - lo > 1e-10:
        if fx[0] < fx[1]:
            hi, x[1], fx[1] = x[1], x[0], fx[0]
            x[0] = hi - r * (hi - lo)
            fx[0] = f(x[0])
        else:
            lo, x[0], fx[0] = x[0], x[1], fx[1]
            x[1] = lo + r * (hi - lo)
            fx[1] = f(x[1])
    delta = (lo + hi) / 2
    return (delta, *best_gain(p.replace(delta=delta)))


@pytest.mark.parametrize("preset, shift, least", [
    (weak_params, 1.73e-3, 2.95e-8),
    (strong_params, 4.45e-2, 1.72e-6),
])
def test_mechanics_shift_the_optimal_gain_as_the_polaron_dressing(
        preset, shift, least):
    # the drive is dressed by exp(-beta**2 / 2) and the gain by
    # exp(-2 beta**2), with lambda_opt ~ E**2: lambda_opt grows by about
    # exp(beta**2) - 1, beta = g_om / omega_m.  The sidebands keep the
    # least g2 above 0: two real parameters cannot zero every c_20m
    p = _at_root(preset)
    delta, lam, value = _least_g2(p, p.kappa / 2)
    assert abs(delta - p.delta) < 0.9 * p.kappa / 2     # not at an edge
    assert lam / p.lambda_gain - 1 == pytest.approx(shift, rel=1e-2)
    assert lam / p.lambda_gain - 1 == pytest.approx(np.expm1(p.g_om ** 2),
                                                    rel=0.1)
    assert value == pytest.approx(least, rel=1e-2)
