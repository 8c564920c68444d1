import warnings
from dataclasses import astuple

import numpy as np
import pytest

import blockade.amplitude
from blockade.amplitude import (AmplitudeState, UndefinedCorrelationError,
                                WeakDrivingWarning, analytic_coefficients,
                                g2_cavity, g2_from_amplitudes, lambda_gamma,
                                steady_amplitude_stack, steady_amplitudes)
from blockade.model import (FockBasis, SystemParams, hamiltonian_stack,
                            non_hermitian_hamiltonian, weak_params)
from blockade.optimize import SearchGrid, find_optimal_pairs
from blockade.sweep import SweepSpec, run_sweep


def six_state_block(p, **arrays):
    """The 6x6 blocks that the hierarchy solves, rows |00> to |20>."""
    return hamiltonian_stack(p, blockade.amplitude._TABLE, **arrays)


def _weak_opt_internal():
    # internal-axis parameters of the published cavity-1 optimum
    return weak_params(delta=0.73e-4, lambda_gain=0.93e-6)


def test_lambda_gamma_values():
    p = SystemParams(delta=0.01, kappa=0.002, g_om=0.1)
    lam, gam = lambda_gamma(p)
    assert lam == pytest.approx(0.01 + 0.001j - 0.01)
    assert gam == pytest.approx(0.01 + 0.001j - 0.02)
    assert lam.imag == pytest.approx(0.5 * p.kappa)


def test_coherent_limit_one_photon():
    # single linear cavity: |c10|^2 = 4 E^2 / kappa^2 on resonance
    p = SystemParams(drive_E=4e-5, kappa=0.002)
    s = steady_amplitudes(p)
    assert abs(s.c10) ** 2 == pytest.approx(4 * p.drive_E ** 2 / p.kappa ** 2,
                                            rel=1e-12)
    assert s.c01 == 0.0
    assert s.c11 == 0.0
    assert s.c02 == 0.0


def test_coherent_limit_g2_is_one():
    p = SystemParams(drive_E=4e-5, kappa=0.002)
    assert g2_cavity(steady_amplitudes(p), 1) == pytest.approx(1.0, abs=1e-10)


def test_decoupled_cavity_two_stays_empty_without_gain():
    s = steady_amplitudes(weak_params(hop_J=0.0))
    assert s.c01 == 0.0 and s.c02 == 0.0 and s.c11 == 0.0
    with pytest.raises(UndefinedCorrelationError):
        g2_cavity(s, 2)


def test_gain_populates_pairs_even_when_decoupled():
    s = steady_amplitudes(weak_params(hop_J=0.0, lambda_gain=1e-6))
    assert s.c01 == 0.0                 # no one-photon route into cavity 2
    assert abs(s.c02) > 0               # but the pair route is direct


def test_requires_positive_drive():
    with pytest.raises(ValueError):
        steady_amplitudes(weak_params(drive_E=0.0))


def test_weak_driving_warning():
    strong = weak_params(drive_E=0.5 * 0.002)
    # each entry point's warning names the caller's line, not the package's
    for call in (lambda: steady_amplitudes(strong),
                 lambda: run_sweep(SweepSpec(axis="delta", range=(0.0, 1e-3),
                                             points=2, base=strong,
                                             method="amplitude")),
                 lambda: find_optimal_pairs(strong, 1, SearchGrid(
                     (-0.01, 0.01), (-5e-6, 5e-6), 4, 4),
                     keep_uncertified=True)):
        with pytest.warns(WeakDrivingWarning) as record:
            call()
        assert record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steady_amplitudes(weak_params())    # E = 0.02*kappa: silent


def test_hierarchy_at_working_point():
    s = steady_amplitudes(weak_params(delta=1e-3, lambda_gain=0.93e-6))
    assert s.c00 == 1.0
    # weak-driving ordering |c00| >> one-photon >> two-photon
    one = max(abs(s.c01), abs(s.c10))
    two = max(abs(s.c11), abs(s.c02), abs(s.c20))
    assert abs(s.c00) > 10 * one > 100 * two


def test_optimal_pair_kills_two_photon_amplitude():
    s = steady_amplitudes(_weak_opt_internal())
    # two-photon amplitude suppressed far below the uncorrelated level
    # (the published pair is rounded to two digits, so not exactly zero)
    assert abs(s.c20) < 2e-3 * abs(s.c10) ** 2
    assert g2_cavity(s, 1) < 1e-4


def test_g2_zero_when_pair_amplitude_vanishes():
    s = AmplitudeState(c00=1.0, c01=1e-3, c10=1e-2, c11=0.0, c02=0.0, c20=0.0)
    assert g2_from_amplitudes(s) == (0.0, 0.0)


def test_g2_arithmetic_identity():
    s = AmplitudeState(c00=1.0, c01=1e-2, c10=1e-2,
                       c11=0.0, c02=1e-4 / np.sqrt(2), c20=0.0)
    assert g2_cavity(s, 2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        g2_cavity(s, 3)


def test_g2_phase_invariance():
    s = steady_amplitudes(weak_params(delta=2e-3, lambda_gain=1e-6))
    phase = np.exp(0.9j)
    rot = AmplitudeState(c00=s.c00, c01=s.c01 * phase, c10=s.c10 * phase,
                         c11=s.c11 * phase ** 2, c02=s.c02 * phase ** 2,
                         c20=s.c20 * phase ** 2)
    assert g2_from_amplitudes(rot) == pytest.approx(g2_from_amplitudes(s))


def test_drive_scaling_invariance_without_gain():
    # with lambda = 0 every route to n photons carries E^n, so g2 is exactly
    # drive-independent; with gain the pair route is E-independent and the
    # invariance genuinely breaks (documented limitation, not tested here)
    for delta in (-0.002, 0.001, 0.004):
        p = weak_params(delta=delta)
        g_ref = g2_cavity(steady_amplitudes(p), 1)
        for s in (0.5, 2.0):
            g = g2_cavity(steady_amplitudes(p.replace(drive_E=s * p.drive_E)), 1)
            assert abs(g - g_ref) / g_ref < 1e-9


def test_arbitrary_phases_accepted_by_solver():
    p = weak_params(delta=1e-3, lambda_gain=1e-6, theta=0.4, phi=1.3)
    s = steady_amplitudes(p)
    assert np.all(np.isfinite(astuple(s)))


def test_analytic_requires_zero_phases():
    with pytest.raises(ValueError):
        analytic_coefficients(weak_params(theta=0.1))


def test_analytic_limits():
    # J = 0: cavity 2 never sees the drive
    p = weak_params(hop_J=0.0, delta=3e-3)
    s = analytic_coefficients(p)
    assert s.c01 == 0.0
    lam, _ = lambda_gamma(p)
    assert s.c10 == pytest.approx(p.drive_E / lam)
    # linear limit: c20 -> E^2 / (sqrt(2) Lambda^2)
    q = SystemParams(delta=3e-3, drive_E=4e-5, kappa=0.002)
    t = analytic_coefficients(q)
    lam, _ = lambda_gamma(q)
    assert t.c20 == pytest.approx(q.drive_E ** 2 / (np.sqrt(2) * lam ** 2))


def test_one_photon_amplitudes_match_closed_forms():
    # the closed forms use the mirrored detuning axis: evaluating the solve
    # path at -delta reproduces their one-photon magnitudes exactly
    rng = np.random.default_rng(4096)
    for _ in range(40):
        p = weak_params(delta=rng.uniform(-0.01, 0.01),
                        lambda_gain=rng.uniform(-5e-6, 5e-6),
                        hop_J=rng.uniform(0.0, 0.002),
                        g_om=rng.uniform(0.0, 0.1))
        ref = analytic_coefficients(p)
        got = steady_amplitudes(p.replace(delta=-p.delta))
        assert abs(got.c10) == pytest.approx(abs(ref.c10), rel=1e-11)
        assert abs(got.c01) == pytest.approx(abs(ref.c01), rel=1e-11)
        # phase relation: conjugate with an alternating sign
        assert got.c01 == pytest.approx(np.conj(ref.c01), rel=1e-10)
        assert got.c10 == pytest.approx(-np.conj(ref.c10), rel=1e-10)


@pytest.mark.parametrize("lambda_gain", [0.0, 5e-6])
def test_two_photon_sign_relation(lambda_gain):
    # with or without gain the mirrored-solve pair amplitudes are the
    # conjugated closed forms, so both share the optimal-pair roots
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = weak_params(delta=rng.uniform(-0.01, 0.01),
                        lambda_gain=lambda_gain,
                        hop_J=rng.uniform(0.0, 0.002),
                        g_om=rng.uniform(0.0, 0.1))
        ref = analytic_coefficients(p)
        got = steady_amplitudes(p.replace(delta=-p.delta))
        assert got.c20 == pytest.approx(np.conj(ref.c20), rel=1e-12)
        assert got.c02 == pytest.approx(np.conj(ref.c02), rel=1e-12)


def _random_params(rng):
    return SystemParams(delta=rng.uniform(-0.1, 0.1),
                        lambda_gain=rng.uniform(-1e-5, 1e-5),
                        theta=rng.uniform(-np.pi, np.pi),
                        phi=rng.uniform(-np.pi, np.pi),
                        hop_J=rng.uniform(-0.02, 0.02),
                        kappa=rng.uniform(1e-4, 1e-2),
                        drive_E=rng.uniform(1e-7, 1e-5),
                        g_om=rng.uniform(0.0, 0.3))


def test_direct_block_equals_fock_projection():
    # the builder on the six states must round exactly as on the 9 states
    # of FockBasis(2, 2), sliced to n1 + n2 <= 2
    basis = FockBasis(2, 2)
    idx = [basis.flatten(n1, n2) for n1, n2 in
           ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))]
    rng = np.random.default_rng(2011)
    for _ in range(300):
        p = _random_params(rng)
        ref = non_hermitian_hamiltonian(p, basis)[np.ix_(idx, idx)]
        assert np.array_equal(six_state_block(p)[0], ref)


def test_stack_equals_points_bit_for_bit():
    rng = np.random.default_rng(83)
    p = _random_params(rng)
    n = 25
    arrays = {"delta": rng.uniform(-0.1, 0.1, n),
              "lambda_gain": rng.uniform(-1e-5, 1e-5, n),
              "hop_J": rng.uniform(-0.02, 0.02, n),
              "g_om": rng.uniform(0.0, 0.3, n)}
    amps = steady_amplitude_stack(p, **arrays)
    assert amps.shape == (n, 6)
    for k in range(n):
        point = p.replace(**{f: float(v[k]) for f, v in arrays.items()})
        assert np.array_equal(amps[k], astuple(steady_amplitudes(point)))
    # scalars broadcast against the stacked field
    block = six_state_block(p, delta=arrays["delta"])
    assert block.shape == (n, 6, 6)
    assert np.array_equal(block[3], six_state_block(
        p.replace(delta=float(arrays["delta"][3])))[0])
    with pytest.raises(ValueError):
        six_state_block(p, kappa=np.ones(3))


def test_block_determinants_clear_the_damping_bound():
    # each block is Hermitian shifted by -i*kappa/2 per photon, so its
    # eigenvalues have |Im| = kappa/2 (one photon) or kappa (two photons)
    rng = np.random.default_rng(1010)
    for kappa in 10 ** rng.uniform(-4.0, 0.0, 100):   # 100 blocks each
        p = SystemParams(theta=rng.uniform(0.1, np.pi), kappa=kappa,
                         phi=rng.uniform(0.1, np.pi), drive_E=1e-6)
        h = six_state_block(p, **{f: rng.uniform(-1.0, 1.0, 100) for f in
                                 ("delta", "lambda_gain", "hop_J")},
                           g_om=rng.uniform(0.0, 1.0, 100))
        assert (abs(np.linalg.det(h[:, 1:3, 1:3])) >= (kappa / 2) ** 2).all()
        assert (abs(np.linalg.det(h[:, 3:, 3:])) >= kappa ** 3).all()


def test_underflowing_determinant_still_solves():
    # at kappa = 1e-160 the one-photon determinant underflows to 0 at
    # delta = 0, yet the block is regular: a linear cavity, g2 = 1
    p = SystemParams(hop_J=0.0, kappa=1e-160, drive_E=1e-162)
    amps = steady_amplitude_stack(p, delta=[-1e-3, 0.0, 1e-3])
    assert np.isfinite(amps).all()
    assert g2_cavity(AmplitudeState(*amps[1]), 1) == pytest.approx(1.0)


def test_printed_c11_differs_only_in_the_sign_of_its_first_term():
    # the printed c11, j(-E^2 Gamma - 2i j^2 lambda + E^2 Lambda
    # + 2i lambda Lambda^2) / (2 d2 d1), against the corrected +E^2 Gamma:
    # the two differ by exactly 2 j E^2 Gamma / (2 d2 d1), and only the
    # corrected one is the solve path at -delta, up to -conj
    rng = np.random.default_rng(11)
    worst_printed = 0.0
    for _ in range(50):
        p = weak_params(delta=rng.uniform(-0.01, 0.01),
                        lambda_gain=rng.uniform(-5e-6, 5e-6),
                        hop_J=rng.uniform(1e-4, 0.0019),
                        g_om=rng.uniform(0.0, 0.1))
        lam, gam = lambda_gamma(p)
        e, j, lam_g = p.drive_E, p.hop_J, p.lambda_gain
        d1, d2 = lam ** 2 - j ** 2, gam * lam - j ** 2
        printed = j * (-e ** 2 * gam - 2j * j ** 2 * lam_g + e ** 2 * lam
                       + 2j * lam_g * lam ** 2) / (2 * d2 * d1)
        corrected = analytic_coefficients(p).c11
        assert corrected - printed == pytest.approx(
            j * e ** 2 * gam / (d2 * d1), rel=1e-9)
        got = steady_amplitudes(p.replace(delta=-p.delta)).c11
        assert got == pytest.approx(-np.conj(corrected), rel=1e-12)
        worst_printed = max(worst_printed,
                            abs(got + np.conj(printed)) / abs(got))
    assert worst_printed > 1.0
