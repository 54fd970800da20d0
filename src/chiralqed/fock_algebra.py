"""Elementary operators on the truncated cavity-atom Hilbert space.

The composite space is atom (x) field with a fixed ordering: the atom index
is the slow one, so the product state |atom, n> sits at flat index
atom * (n_max + 1) + n, with g = 0 and e = 1.  Every other module relies on
this ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FockCutoff:
    """Highest photon number retained; the Fock dimension is n_max + 1.

    n_max must be at least 2 because the two-photon manifold is where the
    pair-pump interference lives; anything smaller cannot represent it.
    """

    n_max: int

    def __post_init__(self) -> None:
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, int):
            raise TypeError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (atom times field)."""
        return 2 * (self.n_max + 1)


def annihilation(cutoff: FockCutoff) -> np.ndarray:
    """Photon annihilation operator on the field factor alone.

    Matrix elements <n-1|a|n> = sqrt(n).  The top state |n_max> has nothing
    above it to be lowered from, which is the single truncation artifact;
    commutator checks must exclude that row.
    """
    amps = np.sqrt(np.arange(1, cutoff.fock_dim, dtype=float))
    return np.diag(amps, k=1).astype(complex)


def atom_lowering() -> np.ndarray:
    """|g><e| with the fixed atom ordering (g first)."""
    sm = np.zeros((2, 2), dtype=complex)
    sm[0, 1] = 1.0
    return sm


@functools.lru_cache(maxsize=8)
def composite_operators(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Cavity annihilation and atom lowering on the full product space.

    The pair is built once per cutoff and shared, so both arrays are
    read-only; copy one before writing into it.
    """
    a = np.kron(np.eye(2, dtype=complex), annihilation(cutoff))
    sm = np.kron(atom_lowering(), np.eye(cutoff.fock_dim, dtype=complex))
    a.flags.writeable = False
    sm.flags.writeable = False
    return a, sm
