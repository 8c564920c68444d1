import json
import math

import numpy as np
import pytest

from blockade.fock import FockBasis, two_mode_ops
from blockade.model import (OMEGA_M_HZ_DEFAULT, STACKED_FIELDS, SystemParams,
                            cpb_detunings, effective_hamiltonian,
                            hamiltonian_stack, ladder_table, load_params,
                            non_hermitian_hamiltonian, params_from_dict,
                            stacked_rates, strong_params, weak_params)


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
        h = effective_hamiltonian(p, basis)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


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


def _ladder_hamiltonian(p, basis, **arrays):
    """(H, n1 + n2) from products of the ladder operators of two_mode_ops,
    by the formula in the model docstring, one H per point of
    stacked_rates(p, arrays); H_nh is H - i kappa/2 (n1 + n2).  The ladder
    matrices are real, and a real product rounds as the complex one (one
    nonzero term per entry), at a quarter of the cost."""
    a1, a2 = (a.real for a in two_mode_ops(basis))
    n_points = len(stacked_rates(p, arrays)[0])
    delta, lam, hop, g = (
        np.asarray(arrays[f], dtype=float).reshape(-1, 1, 1) if f in arrays
        else getattr(p, f) for f in STACKED_FIELDS)
    mu = np.float_power(g, 2)
    h = np.zeros((n_points,) + a1.shape, dtype=complex)
    phase = np.exp(1j * p.theta)
    for a in (a1, a2):
        n = a.T @ a
        h += -delta * n - mu * (n @ n)
        h += 1j * lam * phase * (a.T @ a.T)
        h += -1j * lam * np.conj(phase) * (a @ a)
    h += p.drive_E * np.exp(1j * p.phi) * a1.T
    h += p.drive_E * np.exp(-1j * p.phi) * a1
    h += hop * (a1.T @ a2 + a2.T @ a1)
    return h, a1.T @ a1 + a2.T @ a2


def _random_rates(rng, n=None):
    return dict(delta=rng.uniform(-0.1, 0.1, n),
                lambda_gain=rng.uniform(-1e-5, 1e-5, n),
                hop_J=rng.uniform(-0.02, 0.02, n), g_om=rng.uniform(0, 0.3, n))


@pytest.mark.parametrize("cutoffs", [(1, 1), (2, 3), (3, 3), (6, 6), (31, 31)])
def test_builder_equals_ladder_products(cutoffs):
    # the one builder writes entries as products of square roots; it must
    # round as the ladder-operator sums do, at single points and in stacks
    basis = FockBasis(*cutoffs)
    table = ladder_table(basis)
    rng = np.random.default_rng(sum(cutoffs))
    for _ in range(1 if basis.dim > 100 else 8):
        rates = {k: float(v) for k, v in _random_rates(rng).items()}
        p = SystemParams(theta=rng.uniform(0.1, np.pi),
                         kappa=rng.uniform(1e-4, 1e-2),
                         phi=rng.uniform(-np.pi, -0.1),
                         drive_E=rng.uniform(1e-7, 1e-5), **rates)
        h, n_tot = _ladder_hamiltonian(p, basis)
        h_nh = h - 0.5j * p.kappa * n_tot
        assert np.array_equal(hamiltonian_stack(p, table), h_nh)
        assert np.array_equal(non_hermitian_hamiltonian(p, basis), h_nh[0])
        assert np.array_equal(effective_hamiltonian(p, basis), h[0])
        stacks = [{"hop_J": [-0.01, 0.01]}] if basis.dim > 100 else [
            _random_rates(rng, 5), {"delta": rng.uniform(-0.1, 0.1, 3)},
            {"g_om": rng.uniform(0.0, 0.3, 1)}]
        for arrays in stacks:
            h, n_tot = _ladder_hamiltonian(p, basis, **arrays)
            assert np.array_equal(hamiltonian_stack(p, table, **arrays),
                                  h - 0.5j * p.kappa * n_tot)


def test_builder_rejects_overflowing_entries():
    table = ladder_table(FockBasis(2, 2))
    # each rate is finite, its product with an element or occupation is not
    for rates in ({"delta": [0.0, 1e308]}, {"lambda_gain": [1.5e308]},
                  {"hop_J": [1.5e308]}, {"g_om": [1e155]}):
        with np.errstate(all="raise"), pytest.raises(ValueError,
                                                      match="overflow"):
            hamiltonian_stack(weak_params(), table, **rates)
    with pytest.raises(ValueError, match="overflow"):
        non_hermitian_hamiltonian(weak_params(kappa=1e308), FockBasis(2, 2))


def test_ladder_table_of_any_state_list():
    # the same entries whatever the order of the states, and only between
    # the states listed
    states = [(2, 0), (0, 0), (1, 1), (0, 2), (1, 0)]
    p = weak_params(lambda_gain=1e-6, theta=0.3, phi=0.2)
    h = hamiltonian_stack(p, ladder_table(states))[0]
    full = non_hermitian_hamiltonian(p, FockBasis(2, 2))
    idx = [FockBasis(2, 2).flatten(*s) for s in states]
    assert np.array_equal(h, full[np.ix_(idx, idx)])


def test_g_om_whose_square_overflows_is_rejected():
    with pytest.raises(ValueError, match="g_om"):
        weak_params(g_om=1e200)
    assert math.isfinite(weak_params(g_om=1e154).mu)


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
    ({"g_om": 0.042, "mu": 0.0017},
     r"mu = 0.0017 differs from g_om\*\*2 = 0.0017640000000000002"),
    ({"mu": 0.04}, r"mu = 0.04 differs from g_om\*\*2 = 0.0"),
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
