"""The n1 + n2 <= 2 amplitude hierarchy with the mechanics written out: a
reference for the Kerr term of ``blockade.model``.

``model`` replaces the mechanics by a Kerr term -mu n_j**2 per cavity, with
mu = g_om**2.  That assumes one mechanical mode per cavity (a shared mode
would add a cross-Kerr term).  Here each cavity keeps its mode b_j, with
omega_m = 1, at most ``m_max`` phonons and no mechanical damping:

    H_nh = sum_j [-delta n_j + m_j - i kappa/2 n_j - g_om n_j (b_j + b_j^+)]
           + E (e^{i phi} a_1^+ + h.c.) + J (a_1^+ a_2 + a_2^+ a_1)
           + lambda sum_j (i e^{i theta} a_j^+2 + h.c.),

built from ladder operators on the states (n1, n2, m1, m2), n_j <= 2, not
by ``model.hamiltonian_stack``.  As in ``amplitude.steady_amplitude_stack``,
c_0000 = 1 and the one- and two-photon blocks are solved in turn.  lambda
enters only the two-photon source, so the two-photon amplitudes are
a + lambda * b, and the best real lambda at fixed other rates is closed form.
"""

import numpy as np


def _modes(n):
    """The ladder operators of two modes of n levels each, on n**2 states."""
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return np.kron(a, np.eye(n)), np.kron(np.eye(n), a)


def pair_amplitudes(p, m_max, cavity=1):
    """(n, a, b): the cavity's one-photon weight sum_m |c_1,m|^2, and the
    amplitudes c_2,m = a + lambda * b of two photons in it, at p's rates
    but lambda_gain."""
    (a1, a2), (b1, b2) = _modes(3), _modes(m_max + 1)
    n1, n2 = a1.T @ a1, a2.T @ a2
    photon = (-p.delta - 0.5j * p.kappa) * (n1 + n2) \
        + p.drive_E * (np.exp(1j * p.phi) * a1.T
                       + np.exp(-1j * p.phi) * a1) \
        + p.hop_J * (a1.T @ a2 + a2.T @ a1)
    up = 1j * np.exp(1j * p.theta) * (a1.T @ a1.T + a2.T @ a2.T)
    phonons = np.eye(len(b1))
    h = np.kron(photon, phonons) + np.kron(np.eye(9), b1.T @ b1 + b2.T @ b2) \
        - p.g_om * (np.kron(n1, b1 + b1.T) + np.kron(n2, b2 + b2.T))
    gain = np.kron(up + up.conj().T, phonons)[:, 0]
    # the photon numbers of the states (photon state) * len(b1) + (phonons)
    k1, k2 = (np.repeat(np.rint(np.diag(n)), len(b1)) for n in (n1, n2))
    one, two = np.flatnonzero(k1 + k2 == 1), np.flatnonzero(k1 + k2 == 2)
    c1 = np.linalg.solve(h[np.ix_(one, one)], -h[one, 0])
    block = h[np.ix_(two, two)]
    a = np.linalg.solve(block, -(h[two, 0] + h[np.ix_(two, one)] @ c1))
    b = np.linalg.solve(block, -gain[two])
    k = (k1, k2)[cavity - 1]
    return np.sum(abs(c1[k[one] == 1]) ** 2), a[k[two] == 2], b[k[two] == 2]


def g2(p, m_max=4, cavity=1):
    """The cavity's g2(0), 2 sum_m |c_2,m|^2 / (sum_m |c_1,m|^2)^2."""
    n, a, b = pair_amplitudes(p, m_max, cavity)
    return 2 * np.sum(abs(a + p.lambda_gain * b) ** 2) / n ** 2


def best_gain(p, m_max=4, cavity=1):
    """(lambda, g2) at the least g2 of the cavity over real lambda, at p's
    other rates: sum_m |a_m + lambda b_m|^2 is a parabola in lambda."""
    n, a, b = pair_amplitudes(p, m_max, cavity)
    lam = -np.vdot(b, a).real / np.vdot(b, b).real
    return lam, 2 * np.sum(abs(a + lam * b) ** 2) / n ** 2
