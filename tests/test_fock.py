import numpy as np
import pytest

from blockade.model import FockBasis, InvalidCutoffError, two_mode_ops


def _ket(basis, n1, n2):
    """Unit vector |n1, n2> as a row of the identity."""
    return np.eye(basis.dim, dtype=complex)[basis.flatten(n1, n2)]


def _mode_1(n_max):
    """a1 of FockBasis(n_max, 1) on the states with n2 = 0 (every other flat
    index): the annihilation operator of one mode, n_max + 1 levels."""
    return two_mode_ops(FockBasis(n_max, 1))[0][::2, ::2]


def test_annihilation_two_level():
    assert np.array_equal(_mode_1(1), np.array([[0, 1], [0, 0]]))


def test_annihilation_superdiagonal():
    a = _mode_1(2)
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_number_operator_diagonal():
    a = _mode_1(3)
    n = a.conj().T @ a
    assert np.allclose(n, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_annihilation_rejects_bad_cutoff():
    with pytest.raises(InvalidCutoffError):
        _mode_1(0)


def test_tensor_single_mode_action():
    basis = FockBasis(1, 1)
    a1, _ = two_mode_ops(basis)
    out = a1 @ _ket(basis, 1, 0)
    assert np.allclose(out, _ket(basis, 0, 0))


def test_tensor_number_on_mode_2():
    basis = FockBasis(2, 2)
    _, a2 = two_mode_ops(basis)
    n2 = a2.conj().T @ a2
    v = _ket(basis, 0, 2)
    assert np.allclose(n2 @ v, 2.0 * v)


def test_two_mode_ops_matrix_elements():
    basis = FockBasis(2, 2)
    a1, a2 = two_mode_ops(basis)
    assert a1 @ _ket(basis, 1, 1) == pytest.approx(_ket(basis, 0, 1))
    elem = _ket(basis, 1, 0).conj() @ (a1 @ _ket(basis, 2, 0))
    assert elem == pytest.approx(np.sqrt(2))
    comm = a1 @ a2 - a2 @ a1
    assert np.count_nonzero(comm) == 0


def test_commutator_below_top_level():
    for cutoffs in [(3, 3), (4, 3), (5, 5)]:
        basis = FockBasis(*cutoffs)
        a1, a2 = two_mode_ops(basis)
        for a, mode_max, mode in [(a1, basis.n_max_1, 0), (a2, basis.n_max_2, 1)]:
            comm = a @ a.conj().T - a.conj().T @ a
            for occ in np.ndindex(basis.n_max_1 + 1, basis.n_max_2 + 1):
                if occ[mode] <= mode_max - 1:
                    col = _ket(basis, *occ)
                    # sqrt(k)*sqrt(k) is not exactly k in floats
                    assert np.max(np.abs(comm @ col - col)) < 1e-14


def test_flat_index_round_trip():
    # |n1, n2> is row flatten(n1, n2) of the identity, and the number
    # operators read (n1, n2) back from it
    basis = FockBasis(3, 2)
    a1, a2 = two_mode_ops(basis)
    n1_op, n2_op = a1.conj().T @ a1, a2.conj().T @ a2
    seen = set()
    for n1 in range(4):
        for n2 in range(3):
            idx = basis.flatten(n1, n2)
            ket = np.eye(basis.dim)[idx]
            assert (ket @ n1_op @ ket, ket @ n2_op @ ket) == \
                (pytest.approx(n1), pytest.approx(n2))
            seen.add(idx)
    assert seen == set(range(basis.dim))
    assert basis.dim == 12


def test_basis_rejects_bad_cutoffs():
    for cutoffs in ((0, 2), (31, 32)):          # dim 3, dim 1056 > 1024
        with pytest.raises(InvalidCutoffError):
            FockBasis(*cutoffs)
    # a non-integer count (dim 10.5) would fail only in the solve
    for cutoffs in ((2.5, 2), (2, 2.0), ("2", 2), (None, 2)):
        with pytest.raises(InvalidCutoffError, match="integers"):
            FockBasis(*cutoffs)
    assert FockBasis(np.int64(2), np.int32(3)).dim == 12
    assert FockBasis(31, 31).dim == 1024        # the largest basis
    with pytest.raises(IndexError):
        FockBasis(2, 2).flatten(3, 0)
