"""Elementary operators on the truncated cavity-atom Hilbert space.

The composite space is atom (x) field with a fixed ordering: the atom index
is the slow one, so the product state |atom, n> sits at flat index
atom_index * (n_max + 1) + n.  Every other module relies on this ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ATOM_GROUND = "g"
ATOM_EXCITED = "e"
_ATOM_INDEX = {ATOM_GROUND: 0, ATOM_EXCITED: 1}


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


@dataclass(frozen=True)
class BasisLabel:
    """Product basis state |atom, photons> with atom in {'g', 'e'}."""

    atom: str
    photons: int

    def __post_init__(self) -> None:
        if self.atom not in _ATOM_INDEX:
            raise ValueError(f"atom must be 'g' or 'e', got {self.atom!r}")
        if self.photons < 0:
            raise ValueError("photon number must be nonnegative")


def label_to_index(label: BasisLabel, cutoff: FockCutoff) -> int:
    """Flat index of a product basis state under the fixed ordering."""
    if label.photons > cutoff.n_max:
        raise ValueError(
            f"photon number {label.photons} exceeds the cutoff {cutoff.n_max}"
        )
    return _ATOM_INDEX[label.atom] * cutoff.fock_dim + label.photons


def _as_n_max(cutoff: FockCutoff | int) -> int:
    # Bare ints below 2 are allowed here so the ladder algebra can be
    # exercised on tiny spaces; FockCutoff itself stays strict.
    if isinstance(cutoff, FockCutoff):
        return cutoff.n_max
    if isinstance(cutoff, bool) or not isinstance(cutoff, int):
        raise TypeError(f"expected FockCutoff or int, got {cutoff!r}")
    if cutoff < 0:
        raise ValueError("n_max must be nonnegative")
    return cutoff


def annihilation(cutoff: FockCutoff | int) -> np.ndarray:
    """Photon annihilation operator on the field factor alone.

    Matrix elements <n-1|a|n> = sqrt(n).  The top state |n_max> has nothing
    above it to be lowered from, which is the single truncation artifact;
    commutator checks must exclude that row.
    """
    n_max = _as_n_max(cutoff)
    amps = np.sqrt(np.arange(1, n_max + 1, dtype=float))
    return np.diag(amps, k=1).astype(complex)


def atom_lowering() -> np.ndarray:
    """|g><e| with the fixed atom ordering (g first)."""
    sm = np.zeros((2, 2), dtype=complex)
    sm[0, 1] = 1.0
    return sm


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product; composite operators put the atom factor on the left."""
    a = np.asarray(a)
    b = np.asarray(b)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kron expects square matrices")
    return np.kron(a, b)


def composite_operators(cutoff: FockCutoff | int) -> tuple[np.ndarray, np.ndarray]:
    """Cavity annihilation and atom lowering on the full product space.

    The pair is built once per n_max and shared, so both arrays are
    read-only; copy one before writing into it.
    """
    return _composite_operators(_as_n_max(cutoff))


@functools.lru_cache(maxsize=8)
def _composite_operators(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    eye_field = np.eye(n_max + 1, dtype=complex)
    eye_atom = np.eye(2, dtype=complex)
    a = kron(eye_atom, annihilation(n_max))
    sm = kron(atom_lowering(), eye_field)
    a.flags.writeable = False
    sm.flags.writeable = False
    return a, sm
