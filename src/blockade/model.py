"""System parameters and the effective two-cavity Hamiltonian.

All rates are dimensionless, in units of the mechanical frequency
(omega_m = 1 internally).  The effective Hamiltonian per cavity j is

    -delta * n_j - mu * n_j**2
    + i*lambda_gain * (adag_j)**2 * exp(i*theta)
    - i*lambda_gain * (a_j)**2   * exp(-i*theta)

with a coherent drive E*exp(i*phi)*adag_1 + h.c. on cavity 1 only and
photon hopping J*(adag_1 a_2 + adag_2 a_1).  The Kerr strength is
mu = g_om**2 (optomechanical coupling squared, omega_m units), inherited
from the radiation-pressure interaction after decoupling the mechanics.

One function writes its entries, with the decay -i*kappa/2 * (n1 + n2):
``hamiltonian_stack``, for stacks of rates on any list of states |n1, n2>
(a FockBasis, or the six n1 + n2 <= 2 states of the amplitude hierarchy).
It rounds them as the ladder products above: an occupation n as
sqrt(n)*sqrt(n) (2.0000000000000004 for n = 2), n**2 as its square.

Sign convention note: the published dip locations and optimal-pair tables
for this system use the opposite sign of delta relative to the Hamiltonian
above (figure axes are flipped).  Everything in this module and the
solvers uses the Hamiltonian convention; the sweep/optimizer layers apply
the reporting flip explicitly where documented.

A ``FockBasis`` keeps n_max_j photons at most in mode j, with |n1, n2> at
flat index n1 * (n_max_2 + 1) + n2.  Its ``table``, its ``ladder_table``,
is built on first use and read by every solve on it, so no solve builds a
ladder operator.  ``two_mode_ops`` (the ladder operators),
``non_hermitian_hamiltonian`` (H_nh on a FockBasis) and
``effective_hamiltonian`` serve the dense master-equation reference,
``lindblad.liouvillian``, and the tests that check the table against the
ladder products; they are not public API (not in ``blockade.__all__``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# 2*pi * 75 MHz, the mechanical frequency used for Hz <-> omega_m conversion.
OMEGA_M_HZ_DEFAULT = 2.0 * math.pi * 75.0e6

_PARAM_KEYS = ("delta", "lambda_gain", "theta", "phi", "hop_J", "kappa",
               "drive_E", "g_om")
# the rates that the stacked solvers take as arrays, one value per point
STACKED_FIELDS = ("delta", "lambda_gain", "hop_J", "g_om")


@dataclass(frozen=True)
class SystemParams:
    """All model rates in units of omega_m; identical-cavity assumption.

    A single delta / lambda_gain / kappa / g_om serves both cavities.  The
    asymmetric generalization (per-cavity rates) is deliberately not
    parameterized; all published results use identical cavities.
    """

    delta: float = 0.0
    lambda_gain: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    hop_J: float = 0.0
    kappa: float = 0.002
    drive_E: float = 4.0e-5
    g_om: float = 0.0

    def __post_init__(self):
        for key in _PARAM_KEYS:
            value = getattr(self, key)
            if isinstance(value, np.generic):   # the Python number it holds
                object.__setattr__(self, key, value := value.item())
            if not math.isfinite(value):
                raise ValueError("%s must be finite" % key)
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.drive_E < 0:
            raise ValueError("drive_E must be >= 0")
        if self.g_om < 0:
            raise ValueError("g_om must be >= 0")
        if math.isinf(self.g_om * self.g_om):
            raise ValueError("g_om = %r: mu = g_om**2 overflows" % self.g_om)

    @property
    def mu(self) -> float:
        """Kerr strength g_om**2 / omega_m, with omega_m = 1."""
        return self.g_om ** 2

    def replace(self, **kw) -> "SystemParams":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _PARAM_KEYS}
        d["mu"] = self.mu
        return d


def weak_params(**overrides) -> SystemParams:
    """Weak-coupling working point: J = 0.95*kappa, g = 0.042 omega_m."""
    p = SystemParams(kappa=0.002, hop_J=0.95 * 0.002, drive_E=0.02 * 0.002,
                     g_om=0.042)
    return p.replace(**overrides) if overrides else p


def strong_params(**overrides) -> SystemParams:
    """Strong-coupling working point: J = 8*kappa, g = 0.2 omega_m."""
    p = SystemParams(kappa=0.002, hop_J=8 * 0.002, drive_E=0.02 * 0.002,
                     g_om=0.2)
    return p.replace(**overrides) if overrides else p


# preset name -> its working point, for the command line's --preset
PRESETS = {"weak": weak_params, "strong": strong_params}


def check_range(name: str, rng) -> None:
    """Raise ValueError unless the range (lo, hi) has finite ends, lo < hi
    and a finite width (as Python floats hi - lo overflows to inf, with no
    numpy warning)."""
    lo, hi = (float(x) for x in rng)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range ends must be finite")
    if not lo < hi:
        raise ValueError("%s must satisfy lo < hi" % name)
    if not math.isfinite(hi - lo):
        raise ValueError("%s %r: its width hi - lo overflows"
                         % (name, (lo, hi)))


def check_cavity(cavity: int) -> None:
    """Raise ValueError unless cavity is 1 or 2."""
    if cavity not in (1, 2):
        raise ValueError("cavity must be 1 or 2")


def cpb_detunings(p: SystemParams) -> tuple[float, float]:
    """Conventional-blockade dip locations (mu + J, mu - J).

    Values are on the reporting axis (flipped sign relative to the internal
    Hamiltonian convention, where the single-excitation resonances sit at
    delta = -(mu +/- J)).
    """
    return (p.mu + p.hop_J, p.mu - p.hop_J)


def effective_hamiltonian(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """H_nh on the truncated two-mode space without its decay: Hermitian."""
    h = non_hermitian_hamiltonian(p, basis)
    np.fill_diagonal(h.imag, 0.0)
    return h


def non_hermitian_hamiltonian(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Effective Hamiltonian with -i*kappa/2 * (n1 + n2) decay terms."""
    return hamiltonian_stack(p, basis.table)[0]


def stacked_rates(p: SystemParams, arrays: dict) -> list[np.ndarray]:
    """The rates in STACKED_FIELDS as 1-D arrays broadcast together; those
    that ``arrays`` gives override p's.  Nothing else can be stacked."""
    unknown = set(arrays) - set(STACKED_FIELDS)
    if unknown:
        raise ValueError("cannot stack %s" % sorted(unknown))
    rates = [np.asarray(arrays.get(f, getattr(p, f)), dtype=float).ravel()
             for f in STACKED_FIELDS]
    shape = np.broadcast_shapes(*(r.shape for r in rates))
    return [r if r.shape == shape else r.repeat(shape[0]) for r in rates]


MAX_DIM = 1024      # cutoffs 31, 31: a steady-state solve takes ~20 s, 434 MB


class InvalidCutoffError(ValueError):
    """A truncation that a solver refuses: a photon-number cutoff below 1
    (below 2 for a g2), a basis dimension above MAX_DIM, or a dense
    superoperator above 1e4 rows (``lindblad.liouvillian``)."""


class SolverError(Exception):
    """Base of the per-point solver failures.  A stacked solve or g2 read
    names each point's failure by its class name ("" where the point is
    fine), and a sweep writes the name into the point's cells as
    ``err:<name>``.  Each subclass states its message once, as the template
    ``message``, and ``raise_named`` raises it from the name: the one-point
    cases do, and so does the ``g2`` command.  Each subclass keeps a second
    base (ZeroDivisionError, LinAlgError or ValueError)."""

    named = {}      # every subclass, by its name

    def __init_subclass__(cls):
        SolverError.named[cls.__name__] = cls


def raise_named(name: str, **fields) -> None:
    """Raise the SolverError subclass called ``name``, if there is one ("" is
    a point without failure).  Its ``message`` is filled in from ``fields``
    (a template ignores those it does not name), then from the current
    globals of the module that defines the class."""
    cls = SolverError.named.get(name)
    if cls is not None:
        raise cls(cls.message.format_map(
            {**vars(sys.modules[cls.__module__]), **fields}))


@dataclass(frozen=True)
class FockBasis:
    """Tensor product of two truncated Fock spaces.

    n_max_j is the highest photon number kept in mode j, so the per-mode
    dimension is n_max_j + 1.
    """

    n_max_1: int
    n_max_2: int

    def __post_init__(self):
        cutoffs = (self.n_max_1, self.n_max_2)
        if not (all(isinstance(n, (int, np.integer)) for n in cutoffs)
                and min(cutoffs) >= 1 and self.dim <= MAX_DIM):
            raise InvalidCutoffError(
                "cutoffs must be integers >= 1 with basis dimension <= %d, "
                "got %r" % (MAX_DIM, cutoffs))

    @property
    def dim(self) -> int:
        return (self.n_max_1 + 1) * (self.n_max_2 + 1)

    def flatten(self, n1: int, n2: int) -> int:
        """Flat index of |n1, n2>."""
        if not (0 <= n1 <= self.n_max_1 and 0 <= n2 <= self.n_max_2):
            raise IndexError("occupation (%d, %d) outside basis" % (n1, n2))
        return n1 * (self.n_max_2 + 1) + n2

    @cached_property
    def table(self) -> tuple:
        """``ladder_table`` of this basis, built on first use; read-only."""
        return ladder_table(self)


def g2_basis(cutoff: int) -> FockBasis:
    """FockBasis(cutoff, cutoff) for a master-equation g2(0), which needs
    cutoff >= 2: at cutoff 1 no mode holds two photons, so g2 reads 0."""
    if cutoff < 2:
        raise g2_cutoff_error(cutoff)
    return FockBasis(cutoff, cutoff)


def g2_cutoff_error(cutoff: int) -> InvalidCutoffError:
    """The error of a g2(0) read where a mode is cut at ``cutoff`` < 2."""
    return InvalidCutoffError("g2(0) needs a cutoff >= 2 (no mode holds two "
                              "photons at cutoff 1), got %r" % cutoff)


def two_mode_ops(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operators (a1, a2) on the flat two-mode space: each
    mode's sqrt(k) superdiagonal, kron the other mode's identity."""
    a1, a2 = (np.diag(np.sqrt(np.arange(1.0, n + 1)), 1).astype(complex)
              for n in (basis.n_max_1, basis.n_max_2))
    return (np.kron(a1, np.eye(len(a2))), np.kron(np.eye(len(a1)), a2))


# per off-diagonal term (the drive on cavity 1, the gain in each cavity, the
# hopping): the change of (n1, n2) it makes, and its up and down rate columns
_STEPS = np.array([(1, 0), (2, 0), (0, 2), (1, -1)])
_RATES = np.array([(0, 1), (2, 3), (2, 3), (4, 4)])


def ladder_table(states) -> tuple:
    """What ``hamiltonian_stack`` writes where on ``states``, a FockBasis or
    pairs (n1, n2) in the order of H's rows: sqrt(n)*sqrt(n) for n photons
    and its square, each state's (n1, n2) and total, and the flat index,
    rate and element of each off-diagonal entry.  An element, sqrt(n + 1),
    sqrt(n + 1)*sqrt(n + 2) or sqrt(n1 + 1)*sqrt(n2), is the ladder product."""
    n = np.stack(np.divmod(np.arange(states.dim), states.n_max_2 + 1)) \
        if isinstance(states, FockBasis) else np.array(states).T   # (2, S)
    size, top = n.shape[1], n.max()
    index = np.full((top + 3, top + 3), -1)     # n + 2 fits; n2 - 1 = -1 too
    index[n[0], n[1]] = np.arange(size)
    target = index[n[0] + _STEPS[:, :1], n[1] + _STEPS[:, 1:]]
    move, lo = np.nonzero(target >= 0)      # the term raises |lo> to |hi>
    hi, step, m = target[move, lo], _STEPS[move], n[:, lo].T
    root = np.sqrt(np.arange(top + 3))
    factor = np.where(step > 0, root[m + 1], np.where(
        step < 0, root[m], 1.0)) * np.where(step == 2, root[m + 2], 1.0)
    occ = (root * root)[:top + 1, None]     # sqrt(n) * sqrt(n)
    table = (occ, occ * occ, n, occ[n].sum(axis=0)[:, 0],
             np.concatenate([hi * size + lo, lo * size + hi]),
             _RATES[move].T.ravel(), np.tile(factor.prod(axis=1), 2))
    for x in table:         # shared by every solve on the same states
        x.flags.writeable = False
    return table


def hamiltonian_stack(p: SystemParams, table: tuple, **arrays) -> np.ndarray:
    """H_nh on the states of ``ladder_table``, one per point of
    ``stacked_rates(p, arrays)``: shape (N, S, S).  The one writer of
    Hamiltonian entries; raises ValueError if one overflows."""
    delta, lam, hop, g = stacked_rates(p, arrays)
    occ, occ_sq, (n1, n2), total, where, rate, element = table
    size, phase = len(total), np.exp(1j * p.theta)
    h = np.zeros((len(delta), size, size), dtype=complex)
    flat, rates = h.reshape(len(h), size ** 2), np.empty((len(h), 5), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # per photon number: -delta n - mu n**2, with pow() as SystemParams
        energy = -delta * occ - np.float_power(g, 2) * occ_sq
        flat[:, ::size + 1].real = (energy[n1] + energy[n2]).T
        flat[:, ::size + 1].imag = -0.5 * p.kappa * total
        rates[:, 0] = p.drive_E * np.exp(1j * p.phi)
        rates[:, 1] = p.drive_E * np.exp(-1j * p.phi)
        rates[:, 2], rates[:, 3] = 1j * lam * phase, -1j * lam * np.conj(phase)
        rates[:, 4] = hop
        flat[:, where] = rates[:, rate] * element
    if not np.isfinite(h.view(float)).all():
        raise ValueError("Hamiltonian entries overflow: a rate is too large")
    return h


def params_from_dict(d: dict) -> SystemParams:
    """Build SystemParams from a flat mapping.

    Keys are the SystemParams field names with values in omega_m units;
    a sibling key with an `_hz` suffix is accepted instead (not as well) and
    divided by the mapping's ``omega_m_hz`` (OMEGA_M_HZ_DEFAULT if absent;
    both in the same angular-frequency convention).  A ``mu`` key, as
    ``SystemParams.to_dict`` writes it, must equal g_om**2.
    """
    omega_m_hz = _number(d, "omega_m_hz") if "omega_m_hz" in d \
        else OMEGA_M_HZ_DEFAULT
    if not 0 < omega_m_hz < math.inf:
        raise ValueError("omega_m_hz must be in (0, inf), got %r" % omega_m_hz)
    kw = {}
    for key in _PARAM_KEYS:
        if key in d and key + "_hz" in d:
            raise ValueError("give %s or %s_hz, not both" % (key, key))
        if key in d:
            kw[key] = _number(d, key)
        elif key + "_hz" in d:
            kw[key] = _number(d, key + "_hz") / omega_m_hz
    unknown = set(d) - {k for k in _PARAM_KEYS} - {k + "_hz" for k in _PARAM_KEYS} \
        - {"omega_m_hz", "mu"}
    if unknown:
        raise ValueError("unknown parameter keys: %s" % sorted(unknown))
    p = SystemParams(**kw)
    if "mu" in d and _number(d, "mu") != p.mu:
        raise ValueError("mu = %r differs from g_om**2 = %r"
                         % (_number(d, "mu"), p.mu))
    return p


def _number(d: dict, key: str) -> float:
    """d[key] as a float; a JSON null, boolean, list or object, or an
    integer beyond the float range, raises ValueError."""
    try:        # float(True) would read 1.0
        return float(None if isinstance(d[key], bool) else d[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a number, got %r"
                         % (key, d[key])) from None


def load_params(path) -> SystemParams:
    """Load SystemParams from a flat JSON file (see params_from_dict)."""
    import json     # on first use: importing the package needs no json
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("%s: expected a JSON object" % path)
    return params_from_dict(d)


def to_json(obj, **kw) -> str:
    """obj as JSON indented by 2, the package's one JSON writer: a numpy
    scalar is written as the Python number it holds (any other object that
    JSON has no type for raises TypeError)."""
    import json
    return json.dumps(obj, indent=2, default=np.generic.item, **kw)
