import json
import sys

import numpy as np
import pytest

import blockade.lindblad
import blockade.model
import blockade.optimize
from blockade.amplitude import g2_cavity_stack, steady_amplitude_stack
from blockade.cli import cli_main
from blockade.lindblad import (EmptyModeError, SingularLiouvillianError,
                               SteadyStateConvergenceError,
                               SteadyStateResidualError,
                               UnphysicalStateError, check_density_matrix,
                               g2_from_rho, g2_mode, g2_stack, liouvillian,
                               steady_g2, steady_rho, steady_rho_stack,
                               steady_state)
from blockade.model import (FockBasis, InvalidCutoffError, SystemParams,
                            effective_hamiltonian, non_hermitian_hamiltonian,
                            strong_params, two_mode_ops, weak_params)
import blockade.sweep
from blockade.sweep import ROW_FIELDS, SweepSpec, run_sweep


def _random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_trace_preservation_structural():
    # the identity is a left null vector of any Liouvillian
    basis = FockBasis(3, 3)
    liouv = liouvillian(weak_params(delta=1e-3, lambda_gain=1e-6), basis)
    ident = np.eye(basis.dim, dtype=complex).ravel()
    assert np.max(np.abs(ident @ liouv)) < 1e-10


def test_trace_preservation_random_states():
    basis = FockBasis(2, 2)
    liouv = liouvillian(strong_params(delta=-0.024, lambda_gain=1.1e-6), basis)
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = _random_density(rng, basis.dim)
        assert abs(np.sum((liouv @ rho.ravel())[::basis.dim + 1])) < 1e-12


def test_vacuum_is_dark_without_drive_or_gain():
    basis = FockBasis(2, 2)
    p = weak_params(drive_E=0.0)
    liouv = liouvillian(p, basis)
    vac = np.zeros((basis.dim, basis.dim), dtype=complex)
    vac[0, 0] = 1.0
    assert np.max(np.abs(liouv @ vac.ravel())) < 1e-12
    rho = steady_state(liouv)
    assert abs(rho[0, 0] - 1.0) < 1e-10


def test_driven_damped_coherent_occupation():
    # linear cavity: n1 = 4 E^2/kappa^2 and Poissonian statistics
    p = SystemParams(drive_E=4e-5, kappa=0.002)
    basis = FockBasis(5, 5)
    rho = steady_state(liouvillian(p, basis))
    g2_1, n1 = g2_mode(rho, basis, 1)
    assert n1 == pytest.approx(4 * p.drive_E ** 2 / p.kappa ** 2, rel=1e-2)
    assert g2_1 == pytest.approx(1.0, abs=1e-3)


def test_steady_state_residual_and_asymmetry():
    # steady_state gates the raw solution's asymmetry at HERM_TOL itself
    basis = FockBasis(3, 3)
    for p in (weak_params(delta=7.3e-5, lambda_gain=0.93e-6),
              strong_params(delta=-0.024, lambda_gain=1.1e-6)):
        liouv = liouvillian(p, basis)
        assert np.max(np.abs(liouv @ steady_state(liouv).ravel())) <= 1e-10


def test_steady_state_rejects_an_asymmetric_raw_solution():
    # row 1 of this L sets vec(rho)[1] = rho[0, 1] to 1e-6 rho[0, 0] and
    # leaves rho[1, 0] = 0: asymmetric by 1e-6, though its Hermitized form
    # passes the trace and eigenvalue checks
    m = np.eye(16, dtype=complex)
    m[1, 0] = -1e-6
    with pytest.raises(UnphysicalStateError, match="Hermiticity violation"):
        steady_state(m)


def test_dimension_guard():
    # 11 levels per mode -> superoperator dimension 121**2 > 1e4
    with pytest.raises(InvalidCutoffError):
        liouvillian(weak_params(), FockBasis(10, 10))


def test_liouvillian_exponential_decay():
    # undriven single excitation decays as exp(-kappa t): rho(t) = exp(L t)
    # rho(0), from the eigendecomposition of L
    basis = FockBasis(2, 2)
    p = weak_params(drive_E=0.0, hop_J=0.0, lambda_gain=0.0)
    lam, vecs = np.linalg.eig(liouvillian(p, basis))
    rho0 = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho0[basis.flatten(1, 0), basis.flatten(1, 0)] = 1.0
    t = 1.0 / p.kappa
    rho = (vecs @ (np.exp(lam * t) * np.linalg.solve(vecs, rho0.ravel()))
           ).reshape(basis.dim, basis.dim)
    a1, _ = two_mode_ops(basis)
    n1 = np.real(np.trace(a1.conj().T @ a1 @ rho))
    assert n1 == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_liouvillian_spectrum_relaxes_to_steady_state():
    # one zero eigenvalue, whose trace-1 eigenvector is steady_state; every
    # other mode decays, the slowest (a one-photon coherence) at ~kappa/2
    basis = FockBasis(3, 3)
    for p in (weak_params(delta=1e-3, lambda_gain=0.93e-6),
              strong_params(delta=-0.024, lambda_gain=1.1e-6)):
        liouv = liouvillian(p, basis)
        lam, vecs = np.linalg.eig(liouv)
        k = np.argmin(np.abs(lam))
        assert abs(lam[k]) <= 1e-12 * p.kappa
        assert np.delete(lam, k).real.max() <= -0.4 * p.kappa
        rho = vecs[:, k].reshape(basis.dim, basis.dim)
        rho_ss = steady_state(liouv)
        assert np.abs(rho / np.trace(rho) - rho_ss).max() <= 1e-12


def test_g2_fock_state_zero():
    basis = FockBasis(2, 2)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[basis.flatten(1, 0), basis.flatten(1, 0)] = 1.0
    g2, n = g2_mode(rho, basis, 1)
    assert g2 == 0.0 and n == pytest.approx(1.0)
    with pytest.raises(EmptyModeError):
        g2_mode(rho, basis, 2)


def test_g2_needs_a_mode_that_holds_two_photons():
    # a mode cut at one photon has no pair moment, so its g2 would read 0,
    # as perfect antibunching: refused as g2_basis refuses cutoff 1
    basis = FockBasis(1, 1)
    rho = steady_rho(weak_params(), basis)
    for cavity in (1, 2):
        with pytest.raises(InvalidCutoffError, match="cutoff >= 2"):
            g2_mode(rho, basis, cavity)
    with pytest.raises(InvalidCutoffError, match="cutoff >= 2"):
        g2_from_rho(rho, basis)
    # only the mode that is cut at one photon
    basis = FockBasis(2, 1)
    rho = steady_rho(weak_params(), basis)
    assert g2_mode(rho, basis, 1)[0] > 0
    with pytest.raises(InvalidCutoffError, match="got 1"):
        g2_mode(rho, basis, 2)


def test_g2_thermal_state_two():
    nbar = 0.1
    n_max = 12
    basis = FockBasis(n_max, n_max)
    pops = (nbar / (1 + nbar)) ** np.arange(n_max + 1) / (1 + nbar)
    rho1 = np.diag(pops / pops.sum()).astype(complex)
    rho = np.kron(rho1, rho1)
    for cavity in (1, 2):
        g2, n = g2_mode(rho, basis, cavity)
        assert g2 == pytest.approx(2.0, abs=1e-6)
        assert n == pytest.approx(nbar, rel=1e-6)


@pytest.mark.parametrize("cutoffs", [(2, 4), (4, 2), (3, 3)])
def test_table_moments_equal_the_operator_products(cutoffs):
    # the readers weigh diag(rho) by ladder_table's occupations; the dense
    # reference builds a_j in two_mode_ops: both give <n_j> and
    # <adag_j^2 a_j^2> = tr(adag adag a a rho) alike
    rng = np.random.default_rng(sum(cutoffs) * 10 + cutoffs[0])
    basis = FockBasis(*cutoffs)
    rhos = np.array([_random_density(rng, basis.dim) for _ in range(5)])
    for cavity, a in zip((1, 2), two_mode_ops(basis)):
        ad = a.conj().T
        g2, n, empty = g2_stack(rhos, basis, cavity)
        assert not empty.any()
        for k, rho in enumerate(rhos):
            n_op = np.trace(ad @ a @ rho).real
            pair = np.trace(ad @ ad @ a @ a @ rho).real
            assert n[k] == pytest.approx(n_op, rel=1e-13, abs=0)
            assert g2[k] * n[k] ** 2 == pytest.approx(pair, rel=1e-13, abs=0)


def test_no_production_path_builds_a_ladder_operator(monkeypatch, capsys):
    # the solve, a master-equation sweep, the g2 command and the optimizer's
    # oracle read photon numbers from model.ladder_table; only the dense
    # reference, liouvillian, builds ladder operators
    def refuse(*args, **kwargs):
        raise AssertionError("a ladder operator was built")

    original = blockade.model.two_mode_ops
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").partition(".")[0] == "blockade"
                and getattr(module, "two_mode_ops", None) is original):
            monkeypatch.setattr(module, "two_mode_ops", refuse)
    with pytest.raises(AssertionError, match="ladder operator"):
        liouvillian(weak_params(), FockBasis(2, 2))
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    assert all(np.isfinite(steady_g2(p, cutoff=3)))
    rows = run_sweep(SweepSpec(axis="delta", range=(-0.01, 0.01), points=5,
                               base=p, method="lindblad", cavity="both")).rows
    assert all(isinstance(row[k], float) for row in rows
               for k in ROW_FIELDS[3:])
    assert cli_main(["g2", "--preset", "weak", "--method", "me"]) == 0
    assert "g2_1_me" in json.loads(capsys.readouterr().out)
    pairs = blockade.optimize.find_optimal_pairs(
        weak_params(), 1, blockade.optimize.SearchGrid(
            (-0.01, 0.01), (-5e-6, 5e-6), 4, 4))
    assert pairs and all(q.g2_check <= 1e-2 for q in pairs)


def test_each_basis_builds_its_table_once(monkeypatch):
    # steady_g2 solves and reads both g2s on one basis; a sweep solves its
    # chunks (32 points each at cutoff 3) and reads both cavities on one
    calls = []
    table = blockade.model.ladder_table

    def counted(states):
        calls.append(states)
        return table(states)

    monkeypatch.setattr(blockade.model, "ladder_table", counted)
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    steady_g2(p, cutoff=4)
    assert calls == [FockBasis(4, 4)]
    calls.clear()
    run_sweep(SweepSpec(axis="delta", range=(-0.01, 0.01), points=40, base=p,
                        method="lindblad", cavity="both", cutoff=3))
    assert calls == [FockBasis(3, 3)]
    basis = FockBasis(2, 2)
    for x in basis.table:       # shared by every reader: read-only
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0
    with pytest.raises(AttributeError):     # derived from the cutoffs
        basis.table = FockBasis(3, 3).table


def test_stacked_solves_of_no_points():
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    amps = steady_amplitude_stack(p, delta=np.array([]))
    assert amps.shape == (0, 6)
    assert [x.shape for x in g2_cavity_stack(amps, 1)] == [(0,), (0,)]
    basis = FockBasis(3, 3)
    rhos, errors = steady_rho_stack(p, basis, delta=np.array([]))
    assert rhos.shape == (0, 16, 16) and errors.shape == (0,)
    assert [x.shape for x in g2_stack(rhos, basis, 2)] == [(0,)] * 3
    assert blockade.optimize.target_residual_stack(
        np.zeros((0, 2)), p, 1).shape == (0, 2)


def test_g2_from_rho_orders_modes():
    p = weak_params(delta=1e-3, lambda_gain=0.93e-6)
    basis = FockBasis(3, 3)
    rho = steady_state(liouvillian(p, basis))
    g2_1, g2_2, n1, n2 = g2_from_rho(rho, basis)
    assert g2_1 == g2_mode(rho, basis, 1)[0]
    assert g2_2 == g2_mode(rho, basis, 2)[0]
    assert n1 > n2 > 0          # drive sits on cavity 1


def test_cavity_swap_symmetry():
    # moving the drive to cavity 2 swaps the mode statistics exactly
    basis = FockBasis(3, 3)
    p = strong_params(delta=-0.024, lambda_gain=1.1e-6)
    a1, a2 = two_mode_ops(basis)
    g2_1, g2_2, n1, n2 = g2_from_rho(
        steady_state(liouvillian(p, basis)), basis)

    h_sw = effective_hamiltonian(p.replace(drive_E=0.0), basis) \
        + p.drive_E * (a2 + a2.conj().T)
    eye = np.eye(basis.dim, dtype=complex)
    liouv = -1j * (np.kron(h_sw, eye) - np.kron(eye, h_sw.T))
    for a in (a1, a2):
        n_op = a.conj().T @ a
        liouv += 0.5 * p.kappa * (2 * np.kron(a, a.conj())
                                  - np.kron(n_op, eye) - np.kron(eye, n_op.T))
    g2_1s, g2_2s, n1s, n2s = g2_from_rho(steady_state(liouv), basis)
    assert g2_1s == pytest.approx(g2_2, rel=1e-8)
    assert g2_2s == pytest.approx(g2_1, rel=1e-8)
    assert n1s == pytest.approx(n2, rel=1e-8)
    assert n2s == pytest.approx(n1, rel=1e-8)


def test_steady_g2_convenience_matches_manual():
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    basis = FockBasis(3, 3)
    rho = steady_rho(p, basis)
    assert steady_g2(p, cutoff=3) == g2_from_rho(rho, basis)


# (g2_1, g2_2, n1, n2) at cutoff 3 from a 30-digit mpmath LU solve of the
# trace-constrained dense Liouvillian; _refined_dense_rho below agrees with
# them to 7e-15.  At point B the float64 dense solve is off by 5.6e-8 in
# g2_2.
MPMATH_POINTS = [
    (strong_params(delta=-0.0925, lambda_gain=2.2e-6),
     (104545.14367835899, 1373360.2745981232,
      8.8330834923005745e-7, 2.4359659623245162e-7)),
    (SystemParams(delta=-0.03627517436691988,
                  lambda_gain=3.7602659028314196e-06,
                  theta=2.2514114248945676, phi=4.759422082034005,
                  hop_J=0.0009328932565245629, kappa=0.002,
                  drive_E=0.0014735629072595664, g_om=0.041614607737777615),
     (0.99979732684371949, 7050.6959187177837,
      0.0018208564869485587, 1.3502833867974453e-6)),
]


@pytest.mark.parametrize("p, want", MPMATH_POINTS, ids=["A", "B"])
def test_steady_rho_matches_high_precision_solve(p, want):
    basis = FockBasis(3, 3)
    got = g2_from_rho(steady_rho(p, basis), basis)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


def _refined_dense_rho(p, basis):
    """The dense trace-row solve plus one step of iterative refinement with
    the residual in long double.  Unrefined, the float64 LU loses up to
    ~1e-9 relative in the g2 of a weakly occupied mode (point B: 5.6e-8)."""
    d = basis.dim
    m = liouvillian(p, basis)
    m[0] = 0.0
    m[0, ::d + 1] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    x = np.linalg.solve(m, b)
    x += np.linalg.solve(m, (b - m.astype(np.clongdouble) @ x).astype(complex))
    rho = x.reshape(d, d)
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_steady_rho_converges_at_a_large_hopping(cutoff):
    # at |J| = 500 kappa cavity 1 holds 1.3e-12 photons and a pair moment
    # of 3e-23, whose rounding noise the stop rule reads against
    # MOMENT_FLOOR: the optimal-pair root of the strong preset there
    p = strong_params(hop_J=-1.0, delta=-0.039975, lambda_gain=-7.99e-7)
    basis = FockBasis(cutoff, cutoff)
    rho, ref = steady_rho(p, basis), _refined_dense_rho(p, basis)
    for cavity in (1, 2):
        g2, n = g2_mode(rho, basis, cavity)
        g2_ref, n_ref = g2_mode(ref, basis, cavity)
        assert g2 == pytest.approx(g2_ref, rel=1e-4)
        assert n == pytest.approx(n_ref, rel=1e-10)


def test_steady_rho_matches_dense_solve_on_random_points():
    rng = np.random.default_rng(20261018)
    kappa = 0.002
    for i in range(100):
        p = SystemParams(delta=rng.uniform(-0.1, 0.1),
                         lambda_gain=rng.uniform(-2e-5, 2e-5),
                         theta=rng.uniform(-np.pi, np.pi),
                         phi=rng.uniform(-np.pi, np.pi),
                         hop_J=rng.uniform(0.0, 0.02), kappa=kappa,
                         drive_E=kappa * 10 ** rng.uniform(np.log10(0.002), 0),
                         g_om=rng.uniform(0.0, 0.25))
        cutoff = (2, 3, 4, 2, 3, 4, 2, 3, 4, 5)[i % 10]
        basis = FockBasis(cutoff, cutoff)
        rho = steady_rho(p, basis)
        check_density_matrix(rho)
        h = non_hermitian_hamiltonian(p, basis)
        resid = -1j * (h @ rho - rho @ h.conj().T)
        for a in two_mode_ops(basis):
            resid += kappa * a @ rho @ a.conj().T
        assert np.max(np.abs(resid)) <= 1e-12 * kappa, (i, p)
        ref = _refined_dense_rho(p, basis)
        for cavity in (1, 2):
            g2_ref, n_ref = g2_mode(ref, basis, cavity)
            if n_ref >= 1e-5:
                got = g2_mode(rho, basis, cavity)[0]
                assert got == pytest.approx(g2_ref, rel=1e-10), (i, p)


# Points where the plain jump map is slow or the stopping rule matters:
# pair creation dominating the drive (the map alternates between photon-
# number parities, eigenvalue -0.993: ~4400 plain steps), a cavity-2
# occupation whose rounding floor sits at ~5e-12 relative, a strongly
# driven linear cavity whose change falls non-monotonically, and a weakly
# driven one whose empty cavity 2 carries rounding noise of ~1e-37.
HARD_POINTS = [
    (SystemParams(delta=-0.07764700237617857,
                  lambda_gain=-1.2169459860131623e-05,
                  theta=-2.728760828657566, phi=2.069175434121057,
                  hop_J=0.019256373236116328, kappa=0.002,
                  drive_E=4.363362927544325e-06, g_om=0.19731341096789395), 2),
    (SystemParams(delta=0.02461875814438655,
                  lambda_gain=-6.161669508200599e-08,
                  theta=-2.9093680221540206, phi=2.0928961572761597,
                  hop_J=0.0010334787823879199, kappa=0.002,
                  drive_E=0.0006850377653596259, g_om=0.20318741085419406), 3),
    (SystemParams(drive_E=0.002, kappa=0.002), 5),
    (SystemParams(drive_E=4e-5, kappa=0.002), 5),
]


@pytest.mark.parametrize("p, cutoff", HARD_POINTS,
                         ids=["pair-dominated", "rounding-floor",
                              "strong-drive", "empty-mode"])
def test_steady_rho_hard_points(monkeypatch, p, cutoff):
    monkeypatch.setattr(blockade.lindblad, "MAX_ITERATIONS", 200)
    basis = FockBasis(cutoff, cutoff)
    rho = steady_rho(p, basis)
    ref = _refined_dense_rho(p, basis)
    for cavity, a in zip((1, 2), two_mode_ops(basis)):
        if np.trace(a.conj().T @ a @ ref).real < 1e-12:
            continue                    # cavity 2 of the J = 0 points
        for got, want in zip(g2_mode(rho, basis, cavity),
                             g2_mode(ref, basis, cavity)):
            assert got == pytest.approx(want, rel=1e-10)


def test_steady_rho_dark_vacuum():
    vacuum = np.zeros((16, 16), dtype=complex)
    vacuum[0, 0] = 1.0
    for p in (weak_params(drive_E=0.0), strong_params(drive_E=0.0, theta=1.0)):
        assert np.array_equal(steady_rho(p, FockBasis(3, 3)), vacuum)
    # at cutoff 1 there is no pair state for the gain to fill
    rho = steady_rho(weak_params(drive_E=0.0, lambda_gain=1e-6),
                     FockBasis(1, 1))
    assert rho[0, 0] == 1.0 and np.count_nonzero(rho) == 1


def test_steady_rho_iteration_cap(monkeypatch, capsys):
    monkeypatch.setattr(blockade.lindblad, "MAX_ITERATIONS", 1)
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    with pytest.raises(SteadyStateConvergenceError, match="1 steps"):
        steady_rho(p, FockBasis(3, 3))
    assert issubclass(SteadyStateConvergenceError, SingularLiouvillianError)
    # a sweep flags the point in its row; the g2 command exits 2
    rows = run_sweep(SweepSpec(axis="delta", range=(0.0, 1e-3), points=2,
                               base=p, cavity="1")).rows
    assert all(row["g2_1_me"] == "err:SteadyStateConvergenceError"
               and isinstance(row["g2_1_amp"], float) for row in rows)
    # the void state leaves the fields of cavity 2, not asked for, blank
    assert all(row["g2_2_me"] == row["n2"] == "" for row in rows)
    assert cli_main(["g2", "--preset", "weak", "--method", "me"]) == 2
    assert "SteadyStateConvergenceError" in capsys.readouterr().err


def test_a_nan_iterate_stops_at_once():
    # at delta = -1e200 the jump map's iterate goes NaN: the point ends on
    # that step and fails the density check, not the step cap, and the
    # point beside it in the stack solves as it does alone
    p, basis = weak_params(lambda_gain=5e-6), FockBasis(4, 4)
    rhos, errors = steady_rho_stack(p, basis, delta=[-1e200, -7.3e-5])
    assert list(errors) == ["UnphysicalStateError", ""]
    assert np.isnan(rhos[0]).all()
    assert np.array_equal(rhos[1], steady_rho_stack(
        p, basis, delta=[-7.3e-5])[0][0])


def test_check_density_matrix_raises():
    with pytest.raises(UnphysicalStateError, match="trace"):
        check_density_matrix(np.eye(2, dtype=complex))
    bad = np.array([[0.5, 0.3j], [0.3, 0.5]], dtype=complex)
    with pytest.raises(UnphysicalStateError, match="Hermiticity"):
        check_density_matrix(bad)
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(UnphysicalStateError, match="eigenvalue"):
        check_density_matrix(neg)
    # non-finite entries fail too; eigvalsh would raise LinAlgError on them
    nan = np.diag([np.nan, 0.5, 0.5]).astype(complex)
    for rho in (nan, np.full((3, 3), np.nan, dtype=complex)):
        with pytest.raises(UnphysicalStateError, match="trace"):
            check_density_matrix(rho)
    off = np.eye(3, dtype=complex) / 3
    off[0, 2] = np.nan
    with pytest.raises(UnphysicalStateError, match="Hermiticity"):
        check_density_matrix(off)
    # stacked, the NaN state is flagged and no other
    stack = np.array([np.eye(3) / 3, nan, np.diag([0.5, 0.5, 0.0])],
                     dtype=complex)
    assert blockade.lindblad._density_checks(stack)[1].all(axis=1).tolist() \
        == [True, False, True]


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_liouvillian_matches_written_out_master_equation(cutoff):
    # -i[H, rho] + kappa * sum_j (a_j rho a_j^+ - {a_j^+ a_j, rho}/2) by
    # matrix products on random states, against L @ vec(rho)
    rng = np.random.default_rng(100 + cutoff)
    basis = FockBasis(cutoff, cutoff)
    ops = two_mode_ops(basis)
    for _ in range(4):
        p = SystemParams(delta=rng.uniform(-0.05, 0.05),
                         lambda_gain=rng.uniform(-1e-3, 1e-3),
                         theta=rng.uniform(-np.pi, np.pi),
                         phi=rng.uniform(-np.pi, np.pi),
                         hop_J=rng.uniform(0.0, 0.02),
                         kappa=rng.uniform(1e-3, 1e-2),
                         drive_E=rng.uniform(1e-5, 1e-3),
                         g_om=rng.uniform(0.0, 0.3))
        h = effective_hamiltonian(p, basis)
        liouv = liouvillian(p, basis)
        rho = _random_density(rng, basis.dim)
        want = -1j * (h @ rho - rho @ h)
        for a in ops:
            n_op = a.conj().T @ a
            want += p.kappa * (a @ rho @ a.conj().T
                               - 0.5 * (n_op @ rho + rho @ n_op))
        got = (liouv @ rho.ravel()).reshape(basis.dim, basis.dim)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_steady_rho_stack_rows_equal_point_solves(cutoff):
    rng = np.random.default_rng(40 + cutoff)
    kappa = 0.002
    base = SystemParams(theta=rng.uniform(0.1, np.pi),
                        phi=-rng.uniform(0.1, np.pi), kappa=kappa,
                        drive_E=kappa * 10 ** rng.uniform(-2.7, 0))
    arrays = {"delta": rng.uniform(-0.1, 0.1, 6),
              "lambda_gain": rng.uniform(-2e-5, 2e-5, 6),
              "hop_J": rng.uniform(0.0, 0.02, 6),
              "g_om": rng.uniform(0.0, 0.25, 1 if cutoff % 2 else 6)}
    basis = FockBasis(cutoff, cutoff)
    rhos, errors = steady_rho_stack(base, basis, **arrays)
    assert rhos.shape == (6, basis.dim, basis.dim)
    assert list(errors) == [""] * 6
    for k, rho in enumerate(rhos):
        p = base.replace(**{f: float(a[k % len(a)])
                            for f, a in arrays.items()})
        ref = steady_rho(p, basis)
        for cavity in (1, 2):
            g2_ref, n_ref = g2_mode(ref, basis, cavity)
            if n_ref >= 1e-5:
                for got, want in zip(g2_mode(rho, basis, cavity),
                                     (g2_ref, n_ref)):
                    assert got == pytest.approx(want, rel=1e-12), (k, p)


def test_steady_rho_stack_flags_failures_per_point(monkeypatch):
    # eig fails on the middle point only, and the density-matrix check
    # fails on the last: each flag voids its own row and no other
    base = strong_params(lambda_gain=1.1e-6, theta=0.4, phi=-0.3)
    deltas = np.array([-0.03, -0.024, -0.02, 0.01])
    basis = FockBasis(3, 3)
    want = [steady_rho(base.replace(delta=float(x)), basis) for x in deltas]
    bad = non_hermitian_hamiltonian(base.replace(delta=float(deltas[1])),
                                    basis)
    eig, checks = np.linalg.eig, blockade.lindblad._density_checks

    def failing_eig(a):
        if (a[..., 1, 1] == bad[1, 1]).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    def failing_checks(rhos):
        measures, within = checks(rhos)
        within[[np.allclose(rho, want[3], rtol=0, atol=1e-12)
                for rho in rhos], 2] = False      # a negative eigenvalue
        return measures, within

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    monkeypatch.setattr(blockade.lindblad, "_density_checks", failing_checks)
    rhos, errors = steady_rho_stack(base, basis, delta=deltas)
    assert list(errors) == ["", "SingularLiouvillianError", "",
                            "UnphysicalStateError"]
    assert np.isnan(rhos[1]).all() and np.isnan(rhos[3]).all()
    for k in (0, 2):
        assert np.allclose(rhos[k], want[k], rtol=0, atol=1e-14)
    with pytest.raises(SingularLiouvillianError, match="diagonalized"):
        steady_rho(base.replace(delta=float(deltas[1])), basis)
    with pytest.raises(UnphysicalStateError):
        steady_rho(base.replace(delta=float(deltas[3])), basis)


def test_diagonalize_splits_the_stack_around_the_failing_point(monkeypatch):
    # eig fails on every stack that holds the marked H_nh: the stack is
    # split point by point, that point alone is flagged, and the others
    # solve as in the unsplit stack, bit for bit
    base = strong_params(lambda_gain=1.1e-6, theta=0.4, phi=-0.3)
    deltas = np.linspace(-0.03, 0.01, 5)
    basis = FockBasis(3, 3)
    eig, stacks = np.linalg.eig, []

    def recording_eig(a):
        stacks.append(a.copy())
        return eig(a)

    monkeypatch.setattr(blockade.lindblad.np.linalg, "eig", recording_eig)
    want, want_errors = steady_rho_stack(base, basis, delta=deltas)
    assert list(want_errors) == [""] * 5
    marked = stacks[0][2]

    def failing_eig(a):
        if (a == marked).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(blockade.lindblad.np.linalg, "eig", failing_eig)
    rhos, errors = steady_rho_stack(base, basis, delta=deltas)
    assert list(errors) == ["", "", "SingularLiouvillianError", "", ""]
    assert np.isnan(rhos[2]).all()
    for k in (0, 1, 3, 4):
        assert np.array_equal(rhos[k], want[k]), k


def test_sweep_columns_do_not_depend_on_the_chunk(monkeypatch):
    spec = SweepSpec(axis="delta", range=(-0.1, 0.02), points=23,
                     base=strong_params(lambda_gain=1.1e-6, theta=0.7),
                     method="lindblad", cavity="both", cutoff=3)
    monkeypatch.setattr(blockade.sweep, "STACK_ENTRIES", 10 ** 9)
    whole = run_sweep(spec).rows
    for entries in (1, 5 * 16 ** 2):     # chunks of 1 and of 5 points
        monkeypatch.setattr(blockade.sweep, "STACK_ENTRIES", entries)
        assert run_sweep(spec).rows == whole


# Drive off: the vacuum is dark where the gain is off too, and every other
# point is driven by pair creation alone, the parity-alternating case of the
# pair-dominated hard point.  Row 1 stops at its rounding floor after ~60
# steps (on MOMENT_TOL it would take ~80), row 2 on MOMENT_TOL after ~15
# and row 3 on MOMENT_TOL after ~80: slow, but correct to 1e-14 relative.
PAIR_BASE = SystemParams(theta=0.9, phi=-0.4, kappa=0.002, drive_E=0.0)
PAIR_ROWS = {"delta": [0.0014, -0.005730913909271121, 0.0014,
                       0.017303665365106274],
             "lambda_gain": [0.0, 3.864885018646405e-06, 3.5e-06,
                             8.687525905503152e-06],
             "hop_J": [0.0021, 0.016681494615961533, 0.0021,
                       0.01452947220624741],
             "g_om": [0.195, 0.07697477612802722, 0.195,
                      0.10395167060696857]}


def _capped(p, basis):
    try:
        return steady_rho(p, basis), False
    except SteadyStateConvergenceError:
        return None, True


def test_steady_rho_stack_flags_exactly_the_capped_rows(monkeypatch):
    basis = FockBasis(3, 3)
    points = [PAIR_BASE.replace(**{f: v[k] for f, v in PAIR_ROWS.items()})
              for k in range(4)]
    monkeypatch.setattr(blockade.lindblad, "MAX_ITERATIONS", 70)
    for stall_tol, want in ((blockade.lindblad.STALL_TOL, [3]),
                            (0.0, [1, 3])):     # no rounding-floor stop
        monkeypatch.setattr(blockade.lindblad, "STALL_TOL", stall_tol)
        rhos, errors = steady_rho_stack(PAIR_BASE, basis, **{
            f: np.array(v) for f, v in PAIR_ROWS.items()})
        assert [k for k, e in enumerate(errors) if e] == want
        assert set(errors[want]) == {"SteadyStateConvergenceError"}
        assert rhos[0][0, 0] == 1.0 and np.count_nonzero(rhos[0]) == 1
        for k, p in enumerate(points):
            rho, capped = _capped(p, basis)
            assert capped == (k in want)
            if not capped:
                assert np.array_equal(rhos[k], rho)


def test_sweep_writes_the_cap_error_in_the_capped_rows_only(monkeypatch):
    # the points up to lambda = 7e-6 stop after ~16 steps, the rest after ~60
    monkeypatch.setattr(blockade.lindblad, "MAX_ITERATIONS", 30)
    base = PAIR_BASE.replace(delta=PAIR_ROWS["delta"][0],
                             hop_J=PAIR_ROWS["hop_J"][0],
                             g_om=PAIR_ROWS["g_om"][0])
    spec = SweepSpec(axis="lambda", range=(0.0, 1.4e-5), points=9, base=base,
                     method="lindblad", cavity="both")
    capped = [_capped(base.replace(lambda_gain=v), FockBasis(3, 3))[1]
              for v in np.linspace(0.0, 1.4e-5, 9).tolist()]
    assert True in capped and False in capped
    for row, cap in zip(run_sweep(spec).rows, capped):
        cells = [row[k] for k in ROW_FIELDS[3:]]
        flagged = ["err:SteadyStateConvergenceError"] * 4
        assert (cells == flagged) if cap else \
            "err:SteadyStateConvergenceError" not in cells


# Near-dark points: with the drive off and the gain on, H_nh has a "dressed
# vacuum" eigenstate whose decay rate is 1e-9 to 1e-12 kappa.  Unfixed, the
# defect correction amplifies rounding there by up to 1e12 and the iterate
# collapses onto that state (n ~ 1e-16 against 1.6e-11 at lambda = 5e-8).
# The base is the drive-off point whose lambda = 2.5e-7 and 3.5e-7 once ran
# into the iteration cap.
DRIVE_OFF = PAIR_BASE.replace(delta=-0.0781407479121328,
                              hop_J=0.0032115801430554684,
                              g_om=0.17371305458730937)
NEAR_DARK = {
    "lambda-3": (DRIVE_OFF, 3, "lambda_gain", np.linspace(1e-8, 4e-7, 40)),
    "lambda-4": (DRIVE_OFF, 4, "lambda_gain", np.linspace(1e-8, 4e-7, 40)),
    "strong": (strong_params(drive_E=0.0, lambda_gain=1.1e-6), 3, "delta",
               np.linspace(-0.1, 0.02, 41)),
    "capped": (DRIVE_OFF, 3, "lambda_gain", np.array([2.5e-7, 3.5e-7])),
}


def _dense_error(base, basis, field, values, rhos):
    """Largest relative deviation of n_j and g2_j from the dense solve at
    each point."""
    out = []
    for v, rho in zip(values.tolist(), rhos):
        ref = steady_state(liouvillian(base.replace(**{field: v}), basis))
        got, want = (np.array([g2_mode(r, basis, c) for c in (1, 2)])
                     for r in (rho, ref))
        out.append(np.max(np.abs(got - want) / np.abs(want)))
    return np.array(out)


@pytest.mark.parametrize("case", list(NEAR_DARK))
def test_near_dark_points_match_the_dense_solve(case):
    base, cutoff, field, values = NEAR_DARK[case]
    basis = FockBasis(cutoff, cutoff)
    rhos, errors = steady_rho_stack(base, basis, **{field: values})
    assert list(errors) == [""] * len(values)
    assert _dense_error(base, basis, field, values, rhos).max() < 1e-10


@pytest.mark.parametrize("case", ["lambda-3", "strong"])
def test_residual_gate_flags_the_unfixed_dressed_vacuum(monkeypatch, case):
    # without the dressed-vacuum step, some points stop on a wrong state:
    # exactly those are flagged, and every unflagged point is right
    base, cutoff, field, values = NEAR_DARK[case]
    basis = FockBasis(cutoff, cutoff)
    monkeypatch.setattr(blockade.lindblad, "DARK_TOL", 0.0)
    rhos, errors = steady_rho_stack(base, basis, **{field: values})
    monkeypatch.setattr(blockade.lindblad, "RESIDUAL_GATE", np.inf)
    ungated, ungated_errors = steady_rho_stack(base, basis, **{field: values})
    stopped = ungated_errors == ""
    wrong = np.zeros(len(values), dtype=bool)
    wrong[stopped] = _dense_error(base, basis, field, values[stopped],
                                  ungated[stopped]) > 1e-10
    assert wrong.any()
    assert list(np.flatnonzero(errors == "SteadyStateResidualError")) == \
        list(np.flatnonzero(wrong))
    assert (errors[~stopped] == ungated_errors[~stopped]).all()
    ok = errors == ""
    assert np.array_equal(rhos[ok], ungated[ok])
    assert _dense_error(base, basis, field, values[ok], rhos[ok]).max() \
        < 1e-10


def test_residual_gate_error_reaches_the_sweep_and_the_cli(monkeypatch,
                                                         capsys):
    monkeypatch.setattr(blockade.lindblad, "RESIDUAL_GATE", 0.0)
    p = weak_params(delta=7.3e-5, lambda_gain=0.93e-6)
    with pytest.raises(SteadyStateResidualError, match="above 0.0"):
        steady_rho(p, FockBasis(3, 3))
    assert issubclass(SteadyStateResidualError, SingularLiouvillianError)
    rows = run_sweep(SweepSpec(axis="delta", range=(0.0, 1e-3), points=2,
                               base=p, cavity="1")).rows
    assert all(row["g2_1_me"] == "err:SteadyStateResidualError"
               and isinstance(row["g2_1_amp"], float) for row in rows)
    assert cli_main(["g2", "--preset", "weak", "--method", "me"]) == 2
    assert "SteadyStateResidualError" in capsys.readouterr().err
