"""Shared helpers for the test suite.

``cascade_liouvillian`` is an independent reference construction of the
master-equation generator.  It works from the jump-operator form (one
collective decay channel plus a coherent bright/dark coupling) and builds
every operator from scratch with plain numpy, so it shares no code path
with ``chiralqed.model.build_liouvillian``, which cascades the cavity and the
atom through the two waveguide directions, one jump operator per direction,
and assembles the generator with ``chiralqed.model.lindblad``.  Agreement
between the two at x_phase = 0 is therefore a real cross-check, not a
tautology.

``truncated_rhs`` is the matching reference for the five-state model: it
applies the Hamiltonian and the bright-polariton dissipator to a density
matrix directly, where ``chiralqed.truncated_oracle`` builds a generator.
``index_to_label`` and ``product_to_collective`` invert library maps so the
tests can check round trips.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from chiralqed import collective as coll
from chiralqed import truncated_oracle as trunc
from chiralqed.fock_algebra import BasisLabel, FockCutoff
from chiralqed.model import SystemParams


# The package source of this checkout, for the subprocess tests.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env(**extra) -> dict[str, str]:
    """This process's environment, with this checkout's package importable."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _destroy(n_levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1).astype(complex)


def cascade_liouvillian(params: SystemParams, n_max: int) -> np.ndarray:
    """Reference generator at the default placement (x_phase = 0).

    -i [H + i g (a+ s - s+ a), rho] + Gamma D[u a + w s] rho
    with u^2 = kappa / (kappa + gamma), w^2 = gamma / (kappa + gamma),
    g = (1 - chi) sqrt(kappa gamma) / 2 and Gamma = (1 + chi)(kappa + gamma).
    """
    nf = n_max + 1
    a_op = np.kron(np.eye(2, dtype=complex), _destroy(nf))
    sm = np.zeros((2, 2), dtype=complex)
    sm[0, 1] = 1.0
    s_op = np.kron(sm, np.eye(nf, dtype=complex))
    ad = a_op.conj().T
    sp = s_op.conj().T

    e = params.e_field
    h = params.delta_c * (ad @ a_op) + params.delta_a * (sp @ s_op)
    h = h + 0.5j * (np.conj(e) * (a_op @ a_op) - e * (ad @ ad))
    h = h + 1j * (params.omega_c * (a_op - ad) + params.omega_a * (s_op - sp))

    g_coh = 0.5 * (1.0 - params.chi) * math.sqrt(params.kappa * params.gamma)
    h = h + 1j * g_coh * (ad @ s_op - sp @ a_op)

    total = params.kappa + params.gamma
    u = math.sqrt(params.kappa / total)
    w = math.sqrt(params.gamma / total)
    jump = u * a_op + w * s_op
    rate = (1.0 + params.chi) * total

    dim = 2 * nf
    ident = np.eye(dim, dtype=complex)
    lv = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    jdj = jump.conj().T @ jump
    lv += rate * (
        np.kron(jump.conj(), jump)
        - 0.5 * np.kron(ident, jdj)
        - 0.5 * np.kron(jdj.T, ident)
    )
    return lv


def truncated_rhs(rho: np.ndarray, p: trunc.TruncatedParams) -> np.ndarray:
    """Time derivative of a 5x5 collective-basis density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (5, 5):
        raise ValueError(f"expected a 5x5 density matrix, got {rho.shape}")
    h, bright = trunc.truncated_operators(p)
    bright_d = bright.conj().T
    sink = bright_d @ bright
    out = -1j * (h @ rho - rho @ h)
    out = out + p.gamma_chi * (bright @ rho @ bright_d)
    out = out - 0.5 * p.gamma_chi * (sink @ rho + rho @ sink)
    return out


def index_to_label(index: int, cutoff: FockCutoff) -> BasisLabel:
    """Inverse of chiralqed.fock_algebra.label_to_index."""
    if not 0 <= index < cutoff.dim:
        raise ValueError(f"index {index} out of range for dimension {cutoff.dim}")
    atom_idx, photons = divmod(index, cutoff.fock_dim)
    return BasisLabel(atom="ge"[atom_idx], photons=photons)


def product_to_collective(rho5: np.ndarray, cp: coll.CollectiveParams) -> np.ndarray:
    """Rotate a product-basis matrix over the five retained states into the
    collective basis; the inverse of chiralqed.collective.collective_to_product."""
    rho5 = np.asarray(rho5, dtype=complex)
    if rho5.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got {rho5.shape}")
    unitary = coll.basis_change_matrix(cp)
    return unitary.conj().T @ rho5 @ unitary


def project_liouvillian_to_block(lv_full, cp, cutoff) -> np.ndarray:
    """Restrict a product-space generator to the retained five-state block.

    The result lives in the collective basis, so it is directly comparable
    to a generator assembled from the five-state effective model.  The
    embedding is an isometry on vectorized matrices, which makes this a
    genuine compression (amplitudes leaving the block are discarded, the
    same truncation the five-state model makes).
    """
    iso = coll.embedding_isometry(cutoff)
    unitary = coll.basis_change_matrix(cp)
    embed = np.kron(iso.conj(), iso)
    block_product = embed.conj().T @ lv_full @ embed
    to_coll = np.kron(unitary.T, unitary.conj().T)
    from_coll = np.kron(unitary.conj(), unitary)
    return to_coll @ block_product @ from_coll


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, unit trace, positive)."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def _finite(**bounds) -> st.SearchStrategy[float]:
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# (field, value) pairs that SystemParams must reject: a nonpositive kappa, a
# negative rate, drive or pump, and a chi outside [0, 1].
OUT_OF_RANGE_FIELDS = st.one_of(
    st.tuples(st.just("kappa"), _finite(max_value=0.0)),
    st.tuples(
        st.sampled_from(["gamma", "omega_c", "omega_a", "e_mag"]),
        _finite(max_value=0.0, exclude_max=True),
    ),
    st.tuples(
        st.just("chi"),
        _finite(max_value=0.0, exclude_max=True) | _finite(min_value=1.0, exclude_min=True),
    ),
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def dark_point() -> SystemParams:
    """Weak-drive operating point where the pair pump cancels both leakage paths."""
    return SystemParams(
        kappa=1.0,
        gamma=1.0,
        chi=0.0,
        omega_c=0.01,
        omega_a=0.01,
        e_mag=4e-4,
        phi_d=0.0,
    )
