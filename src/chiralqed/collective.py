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
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .fock_algebra import FockCutoff
from .model import SystemParams, derive

SQRT2 = math.sqrt(2.0)

COLLECTIVE_LABELS = ("1", "psi", "phi", "xi", "zeta")
COLLECTIVE_INDEX = {label: k for k, label in enumerate(COLLECTIVE_LABELS)}

# Product-basis ordering of the five retained states: |g,0>, |g,1>, |g,2>,
# |e,0>, |e,1>.  Their indices in a full space with Fock dimension nf are
# (0, 1, 2, nf, nf + 1).


@dataclass(frozen=True)
class CollectiveAmplitudes:
    """Pure-state amplitudes over the five collective states.

    Field order puts the dark-state pair (c1, c_phi) first; as_vector
    rearranges into the COLLECTIVE_LABELS basis order.
    """

    c1: complex
    c_phi: complex
    c_psi: complex = 0j
    c_xi: complex = 0j
    c_zeta: complex = 0j

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.c1, self.c_psi, self.c_phi, self.c_xi, self.c_zeta],
            dtype=complex,
        )


@dataclass(frozen=True)
class CollectiveParams:
    """Superposition weights (u, w) and the double-excitation gauge (alpha, beta)."""

    u: float
    w: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if abs(self.u**2 + self.w**2 - 1.0) > 1e-12:
            raise ValueError("u^2 + w^2 must equal 1")
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12:
            raise ValueError("alpha^2 + beta^2 must equal 1")


def default_gauge(u: float, w: float) -> CollectiveParams:
    """The gauge with u beta = sqrt(2) w alpha.

    It funnels the bright single state into one double state only (its
    overlap beta u - sqrt(2) w alpha with the other vanishes), which keeps
    diagnostics readable; the gauge-independence property guards
    against accidental reliance on it.
    """
    norm = math.hypot(u, SQRT2 * w)
    return CollectiveParams(u=u, w=w, alpha=u / norm, beta=SQRT2 * w / norm)


def from_system(params: SystemParams) -> CollectiveParams:
    """Default-gauge collective weights for a physical parameter set."""
    dp = derive(params)
    return default_gauge(dp.u, dp.w)


Gauges = CollectiveParams | Sequence[CollectiveParams]


def _per_gauge(cp: Gauges, build: Callable[[CollectiveParams], np.ndarray]) -> np.ndarray:
    """build(cp) for one gauge; for a sequence of P gauges, the stack of build
    over them along a new first axis, each distinct gauge built once."""
    if isinstance(cp, CollectiveParams):
        return build(cp)
    position: dict[CollectiveParams, int] = {}
    rows = [position.setdefault(gauge, len(position)) for gauge in cp]
    return np.stack([build(gauge) for gauge in position])[rows]


def basis_change_matrix(cp: Gauges) -> np.ndarray:
    """Unitary whose columns are the collective states in product coordinates.

    Rows follow the product order |g,0>, |g,1>, |g,2>, |e,0>, |e,1>; columns
    follow COLLECTIVE_LABELS.  A sequence of P gauges gives a (P, 5, 5) stack.
    """
    return _per_gauge(cp, _basis_change)


def _basis_change(cp: CollectiveParams) -> np.ndarray:
    u, w, al, be = cp.u, cp.w, cp.alpha, cp.beta
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, u, w, 0.0, 0.0],
            [0.0, 0.0, 0.0, al, be],
            [0.0, w, -u, 0.0, 0.0],
            [0.0, 0.0, 0.0, be, -al],
        ],
        dtype=complex,
    )


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


def collective_jump_operators(cp: Gauges) -> tuple[np.ndarray, np.ndarray]:
    """Bright (decaying) and dark polariton lowering operators, collective basis.

    The bright operator is u a + w sigma- rotated into the collective basis;
    the dark one is w a - u sigma-.  Only the bright one appears in the
    collective dissipator.  A sequence of P gauges gives two (P, 5, 5) stacks.
    """
    pair = _per_gauge(cp, _jump_pair)
    return pair[..., 0, :, :], pair[..., 1, :, :]


def _jump_pair(cp: CollectiveParams) -> np.ndarray:
    unitary = basis_change_matrix(cp)
    a5, s5 = product_five_ops()
    bright = unitary.conj().T @ (cp.u * a5 + cp.w * s5) @ unitary
    dark = unitary.conj().T @ (cp.w * a5 - cp.u * s5) @ unitary
    return np.stack((bright, dark))


def collective_to_product(rho5: np.ndarray, cp: Gauges) -> np.ndarray:
    """Rotate a collective-basis matrix into the product basis of the five
    retained states.

    rho5 may also be a (P, 5, 5) stack, with cp one gauge or a sequence of P.
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


def collective_state_vector(
    label: str, cp: CollectiveParams, cutoff: FockCutoff | None = None
) -> np.ndarray:
    """A collective basis state as a product-space vector.

    With a cutoff the vector lives in the full space; without one it lives in
    the five-state product subspace.
    """
    if label not in COLLECTIVE_INDEX:
        raise ValueError(f"unknown collective label {label!r}")
    col = basis_change_matrix(cp)[:, COLLECTIVE_INDEX[label]]
    if cutoff is None:
        return col
    return embedding_isometry(cutoff) @ col
