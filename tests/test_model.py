import json
import math

import numpy as np
import pytest

from blockade.fock import FockBasis, is_hermitian, two_mode_ops
from blockade.model import (OMEGA_M_HZ_DEFAULT, SystemParams, cpb_detunings,
                            effective_hamiltonian, load_params,
                            non_hermitian_hamiltonian, params_from_dict,
                            strong_params, weak_params)


def test_preset_values():
    w = weak_params()
    assert w.kappa == 0.002
    assert w.hop_J == pytest.approx(0.95 * w.kappa)
    assert w.drive_E == pytest.approx(0.02 * w.kappa)
    assert w.g_om == 0.042
    assert w.mu == pytest.approx(0.042 ** 2)
    s = strong_params()
    assert s.hop_J == pytest.approx(8 * s.kappa)
    assert s.g_om == 0.2
    assert s.mu == pytest.approx(0.04)


def test_preset_overrides_and_replace():
    p = weak_params(delta=1e-3, lambda_gain=2e-6)
    assert p.delta == 1e-3 and p.lambda_gain == 2e-6
    q = p.replace(g_om=0.05)
    assert q.g_om == 0.05 and p.g_om == 0.042     # frozen original


def test_param_validation():
    with pytest.raises(ValueError):
        SystemParams(kappa=0.0)
    with pytest.raises(ValueError):
        SystemParams(drive_E=-1e-5)
    with pytest.raises(ValueError):
        SystemParams(g_om=-0.1)


@pytest.mark.parametrize("field", ["delta", "lambda_gain", "theta", "phi",
                                   "hop_J", "kappa", "drive_E", "g_om"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_param_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        weak_params().replace(**{field: value})


def test_cpb_detunings():
    s = strong_params()
    plus, minus = cpb_detunings(s)
    assert plus == pytest.approx(0.056)
    assert minus == pytest.approx(0.024)
    j0 = cpb_detunings(strong_params(hop_J=0.0))
    assert j0[0] == j0[1] == pytest.approx(0.04)


def test_hamiltonian_hermitian_random_draws():
    rng = np.random.default_rng(20260823)
    basis = FockBasis(3, 3)
    for _ in range(25):
        p = SystemParams(delta=rng.uniform(-0.1, 0.1),
                         lambda_gain=rng.uniform(-5e-6, 5e-6),
                         theta=rng.uniform(0, 2 * np.pi),
                         phi=rng.uniform(0, 2 * np.pi),
                         hop_J=rng.uniform(0, 0.02),
                         kappa=rng.uniform(1e-4, 5e-3),
                         drive_E=rng.uniform(0, 1e-4),
                         g_om=rng.uniform(0, 0.3))
        assert is_hermitian(effective_hamiltonian(p, basis))


def test_diagonal_energies():
    # <n1,n2|H|n1,n2> = sum_j (-delta*n_j - mu*n_j**2) with no drive/hop terms
    basis = FockBasis(2, 2)
    p = SystemParams(delta=0.01, g_om=0.2, drive_E=0.0)
    h = effective_hamiltonian(p, basis)
    for n1 in range(3):
        for n2 in range(3):
            i = basis.flatten(n1, n2)
            expect = sum(-p.delta * n - p.mu * n ** 2 for n in (n1, n2))
            assert h[i, i] == pytest.approx(expect, abs=1e-15)


def test_off_diagonal_matrix_elements():
    basis = FockBasis(2, 2)
    lam = 3e-6
    p = SystemParams(lambda_gain=lam, hop_J=0.01, drive_E=4e-5)
    h = effective_hamiltonian(p, basis)
    f = basis.flatten
    # parametric gain populates photon pairs: <2,0|H|0,0> = i*sqrt(2)*lambda
    assert h[f(2, 0), f(0, 0)] == pytest.approx(1j * np.sqrt(2) * lam)
    assert h[f(0, 2), f(0, 0)] == pytest.approx(1j * np.sqrt(2) * lam)
    # hopping between the two-excitation states picks up sqrt(2)
    assert h[f(1, 1), f(0, 2)] == pytest.approx(np.sqrt(2) * p.hop_J)
    assert h[f(1, 1), f(2, 0)] == pytest.approx(np.sqrt(2) * p.hop_J)
    # drive acts on cavity 1 only
    assert h[f(1, 0), f(0, 0)] == pytest.approx(p.drive_E)
    assert h[f(0, 1), f(0, 0)] == 0.0


def test_phases_enter_as_stated():
    basis = FockBasis(2, 2)
    p = SystemParams(lambda_gain=2e-6, theta=0.7, phi=1.1, drive_E=4e-5)
    h = effective_hamiltonian(p, basis)
    f = basis.flatten
    assert h[f(2, 0), f(0, 0)] == pytest.approx(
        1j * np.sqrt(2) * p.lambda_gain * np.exp(1j * p.theta))
    assert h[f(1, 0), f(0, 0)] == pytest.approx(p.drive_E * np.exp(1j * p.phi))


def test_excitation_blocks_without_drive_or_gain():
    # with E = lambda = 0 the Hamiltonian conserves total photon number
    basis = FockBasis(3, 3)
    p = SystemParams(delta=0.02, hop_J=0.01, g_om=0.1, drive_E=0.0)
    h = effective_hamiltonian(p, basis)
    a1, a2 = two_mode_ops(basis)
    n_tot = a1.conj().T @ a1 + a2.conj().T @ a2
    assert np.max(np.abs(h @ n_tot - n_tot @ h)) < 1e-14


def test_single_excitation_eigenvalues():
    # the one-photon block has eigenvalues -delta - mu -/+ J (hybridized modes)
    basis = FockBasis(2, 2)
    p = SystemParams(delta=0.01, hop_J=0.003, g_om=0.2, drive_E=0.0)
    h = effective_hamiltonian(p, basis)
    idx = [basis.flatten(0, 1), basis.flatten(1, 0)]
    w = np.sort(np.linalg.eigvalsh(h[np.ix_(idx, idx)]))
    assert w[0] == pytest.approx(-p.delta - p.mu - p.hop_J)
    assert w[1] == pytest.approx(-p.delta - p.mu + p.hop_J)


def test_non_hermitian_decay_term():
    basis = FockBasis(2, 2)
    p = weak_params(delta=1e-3)
    diff = non_hermitian_hamiltonian(p, basis) - effective_hamiltonian(p, basis)
    a1, a2 = two_mode_ops(basis)
    n_tot = a1.conj().T @ a1 + a2.conj().T @ a2
    assert np.max(np.abs(diff + 0.5j * p.kappa * n_tot)) == 0.0


def test_params_from_dict_plain_and_hz():
    p = params_from_dict({"delta": 0.01, "kappa": 0.002})
    assert p.delta == 0.01
    # a *_hz key is divided by the angular mechanical frequency
    q = params_from_dict({"delta_hz": -34304.2, "kappa": 0.002})
    assert q.delta == pytest.approx(-34304.2 / OMEGA_M_HZ_DEFAULT)
    assert q.delta == pytest.approx(-0.73e-4, rel=5e-3)
    with pytest.raises(ValueError):
        params_from_dict({"bogus": 1.0})


def test_omega_m_default():
    assert OMEGA_M_HZ_DEFAULT == pytest.approx(2 * math.pi * 75e6)


def test_load_params_round_trip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"delta": -0.0024, "lambda_gain": 1.1e-6,
                                "hop_J": 0.016, "kappa": 0.002,
                                "drive_E": 4e-5, "g_om": 0.2}))
    p = load_params(path)
    assert p == strong_params(delta=-0.0024, lambda_gain=1.1e-6)


def test_load_params_custom_omega(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"delta_hz": 100.0, "omega_m_hz": 1000.0}))
    assert load_params(path).delta == pytest.approx(0.1)


@pytest.mark.parametrize("content, match", [
    ({"omega_m_hz": 0, "delta_hz": 100.0}, "omega_m_hz"),
    ({"omega_m_hz": -1000.0, "delta_hz": 100.0}, "omega_m_hz"),
    ({"omega_m_hz": math.inf, "kappa_hz": 1.0}, "omega_m_hz"),
    ({"delta": 0.1, "delta_hz": 100.0}, "not both"),
    ([{"delta": 0.1}], "JSON object"),
    ({"delta": None}, "delta must be a number"),
    ({"kappa": [0.002]}, "kappa must be a number"),
    ({"hop_J_hz": {"value": 1.0}}, "hop_J_hz must be a number"),
    ({"drive_E": "strong"}, "drive_E must be a number"),
    ({"omega_m_hz": None, "delta_hz": 100.0}, "omega_m_hz must be a number"),
])
def test_load_params_rejects_bad_files(tmp_path, content, match):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError, match=match):
        load_params(path)


def test_to_dict_includes_mu():
    d = strong_params().to_dict()
    assert d["mu"] == pytest.approx(0.04)
    assert d["g_om"] == 0.2
