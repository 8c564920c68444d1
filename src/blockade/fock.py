"""Truncated two-mode Fock space and the ladder operators built on it.

Operators are plain dense complex numpy arrays; the flat index convention
is mode-1 major: flat = n1 * (n_max_2 + 1) + n2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 1024      # cutoffs 31, 31: a steady-state solve takes ~20 s, 434 MB


class InvalidCutoffError(ValueError):
    """Photon-number cutoff below 1 (below 2 for a g2), or a basis dimension
    above MAX_DIM."""


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


def annihilation(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator on an (n_max+1)-level ladder."""
    if n_max < 1:
        raise InvalidCutoffError("n_max must be >= 1, got %r" % (n_max,))
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k in range(1, n_max + 1):
        a[k - 1, k] = np.sqrt(k)
    return a


def two_mode_ops(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operators (a1, a2) on the flat two-mode space."""
    def kron(x, y):     # np.kron(x, y), without its general-shape overhead
        return np.multiply.outer(x, y).transpose(0, 2, 1, 3).reshape(
            basis.dim, basis.dim)

    eye1, eye2 = (np.eye(n + 1, dtype=complex)
                  for n in (basis.n_max_1, basis.n_max_2))
    return (kron(annihilation(basis.n_max_1), eye2),
            kron(eye1, annihilation(basis.n_max_2)))

