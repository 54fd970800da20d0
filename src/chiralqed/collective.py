"""Polariton operators and the five-state collective basis.

Ordered basis: the shared ground state, the bright and dark single-excitation
superpositions, and the bright and dark double-excitation superpositions,
labeled ("1", "psi", "phi", "xi", "zeta").  The single-excitation pair mixes
|g,1> and |e,0> with weights (u, w); the double-excitation pair mixes |g,2>
and |e,1> with weights (alpha, beta).  The (alpha, beta) choice is a gauge:
physics in the product basis cannot depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_algebra import FockCutoff

SQRT2 = math.sqrt(2.0)

COLLECTIVE_LABELS = ("1", "psi", "phi", "xi", "zeta")
COLLECTIVE_INDEX = {label: k for k, label in enumerate(COLLECTIVE_LABELS)}

# Product-basis ordering of the five retained states: |g,0>, |g,1>, |g,2>,
# |e,0>, |e,1>.  Their indices in a full space with Fock dimension nf are
# (0, 1, 2, nf, nf + 1).


@dataclass(frozen=True)
class CollectiveAmplitudes:
    """Pure-state amplitudes of a dark state, which lies in the span of the
    ground state "1" and the dark polariton "phi".

    as_vector gives all five amplitudes in the COLLECTIVE_LABELS basis order.
    """

    c1: complex
    c_phi: complex

    def as_vector(self) -> np.ndarray:
        return np.array([self.c1, 0j, self.c_phi, 0j, 0j], dtype=complex)


@dataclass(frozen=True)
class CollectiveParams:
    """Superposition weights (u, w) and the double-excitation gauge (alpha, beta).

    One record holds one gauge, with float fields, or a batch of P gauges,
    with four (P,) array fields.
    """

    u: float | np.ndarray
    w: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray

    def __post_init__(self) -> None:
        if np.count_nonzero(abs(self.u**2 + self.w**2 - 1.0) > 1e-12):
            raise ValueError("u^2 + w^2 must equal 1")
        if np.count_nonzero(abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12):
            raise ValueError("alpha^2 + beta^2 must equal 1")


def default_gauge(u: float | np.ndarray, w: float | np.ndarray) -> CollectiveParams:
    """The gauge with u beta = sqrt(2) w alpha.

    It funnels the bright single state into one double state only (its
    overlap beta u - sqrt(2) w alpha with the other vanishes), which keeps
    diagnostics readable; the gauge-independence property guards
    against accidental reliance on it.  (P,) arrays of weights give a batch
    of P gauges, each member equal to the gauge of its weights bit for bit.
    """
    if isinstance(u, np.ndarray) or isinstance(w, np.ndarray):
        u, w = np.broadcast_arrays(u, w)
        # math.hypot per element: np.hypot rounds some pairs differently.
        norm = np.array([math.hypot(a, SQRT2 * b) for a, b in zip(u.tolist(), w.tolist())])
    else:
        norm = math.hypot(u, SQRT2 * w)
    return CollectiveParams(u=u, w=w, alpha=u / norm, beta=SQRT2 * w / norm)


# Flat positions in a 5x5 matrix of the entries basis_change_matrix fills
# from the gauge, in the order of its values; entry (0, 0) is 1.
_BASIS_ENTRIES = np.ravel_multi_index(
    ([1, 1, 2, 2, 3, 3, 4, 4], [1, 2, 3, 4, 1, 2, 3, 4]), (5, 5)
)


def basis_change_matrix(cp: CollectiveParams) -> np.ndarray:
    """Unitary whose columns are the collective states in product coordinates.

    Rows follow the product order |g,0>, |g,1>, |g,2>, |e,0>, |e,1>; columns
    follow COLLECTIVE_LABELS.  A batch of P gauges gives a (P, 5, 5) stack.
    """
    u, w, al, be = cp.u, cp.w, cp.alpha, cp.beta
    values = np.array([u, w, al, be, w, -u, be, -al]).T
    unitary = np.zeros((*values.shape[:-1], 25), dtype=complex)
    unitary[..., 0] = 1.0
    unitary[..., _BASIS_ENTRIES] = values
    return unitary.reshape(*values.shape[:-1], 5, 5)


def product_five_ops() -> tuple[np.ndarray, np.ndarray]:
    """Cavity annihilation and atom lowering restricted to the five states."""
    a5 = np.zeros((5, 5), dtype=complex)
    a5[0, 1] = 1.0
    a5[1, 2] = SQRT2
    a5[3, 4] = 1.0
    s5 = np.zeros((5, 5), dtype=complex)
    s5[0, 3] = 1.0
    s5[1, 4] = 1.0
    return a5, s5


def collective_jump_operators(cp: CollectiveParams) -> tuple[np.ndarray, np.ndarray]:
    """Bright (decaying) and dark polariton lowering operators, collective basis.

    The bright operator is u a + w sigma- rotated into the collective basis;
    the dark one is w a - u sigma-.  Only the bright one appears in the
    collective dissipator.  A batch of P gauges gives two (P, 5, 5) stacks.
    """
    unitary = basis_change_matrix(cp)
    adjoint = np.swapaxes(unitary.conj(), -1, -2)
    a5, s5 = product_five_ops()
    u, w = (np.asarray(weight)[..., np.newaxis, np.newaxis] for weight in (cp.u, cp.w))
    bright = adjoint @ (u * a5 + w * s5) @ unitary
    dark = adjoint @ (w * a5 - u * s5) @ unitary
    return bright, dark


def collective_to_product(rho5: np.ndarray, cp: CollectiveParams) -> np.ndarray:
    """Rotate a collective-basis matrix into the product basis of the five
    retained states.

    rho5 may also be a (P, 5, 5) stack, with cp one gauge or a batch of P.
    """
    rho5 = np.asarray(rho5, dtype=complex)
    if rho5.ndim not in (2, 3) or rho5.shape[-2:] != (5, 5):
        raise ValueError(f"expected a 5x5 matrix or a stack of them, got {rho5.shape}")
    unitary = basis_change_matrix(cp)
    return unitary @ rho5 @ np.swapaxes(unitary.conj(), -1, -2)


def embedding_isometry(cutoff: FockCutoff) -> np.ndarray:
    """Isometry from the five retained product states into the full space."""
    iso = np.zeros((cutoff.dim, 5), dtype=complex)
    nf = cutoff.fock_dim
    for column, row in enumerate((0, 1, 2, nf, nf + 1)):
        iso[row, column] = 1.0
    return iso

