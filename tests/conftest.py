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
tests can check round trips.  ``stack_params`` makes one batch record of
one-point five-state records, and ``gauge_members`` splits a batch gauge
into its members, so batches can be checked against their points.

The rest are reference implementations that no engine or CLI path runs, so
they live here rather than in the package: ``build_hamiltonian`` (the
Hamiltonian alone, from the generator's Hermitian basis), ``devectorize`` and
``evolve`` (time evolution by ``expm_multiply``), the overlaps ``eta`` and
``sigma`` and the closed-form ``collective_rates`` of the five-state model,
and the paper's closed forms ``analytic_dark_rho`` (the dark-state density
matrix) and ``interference_rates`` (the two double-excitation routes).
"""

from __future__ import annotations

import math
import os

from dataclasses import dataclass, fields

import numpy as np
import pytest
import scipy.sparse
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from chiralqed import collective as coll
from chiralqed import dark_state as ds
from chiralqed import model
from chiralqed import truncated_oracle as trunc
from chiralqed.dynamics import _finalize, validate_density_matrix, vectorize
from chiralqed.fock_algebra import BasisLabel, FockCutoff
from chiralqed.model import SystemParams, derive

SQRT2 = math.sqrt(2.0)


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


def stack_params(tps: list[trunc.TruncatedParams]) -> trunc.TruncatedParams:
    """One batch record of P one-point records: (P,) fields and a batch gauge."""
    def column(records, name):
        return np.array([getattr(record, name) for record in records])

    gauge = {f.name: column([tp.cp for tp in tps], f.name) for f in fields(coll.CollectiveParams)}
    return trunc.TruncatedParams(
        **{f.name: column(tps, f.name) for f in fields(trunc.TruncatedParams) if f.name != "cp"},
        cp=coll.CollectiveParams(**gauge),
    )


def gauge_members(cp: coll.CollectiveParams, count: int) -> list[coll.CollectiveParams]:
    """The count one-gauge records of a batch gauge; one gauge, repeated."""
    columns = [np.broadcast_to(getattr(cp, f.name), (count,)).tolist() for f in fields(cp)]
    return [coll.CollectiveParams(*member) for member in zip(*columns)]


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


def build_hamiltonian(params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """Hermitian generator: detunings, pair pump, and coherent drives.

    The cascaded exchange, the last two weights of the same basis, belongs
    to the generator and is left out here.
    """
    weights, _ = model._weights(params)
    basis = model._hermitian_basis(cutoff)
    return sum(w * b for w, b in zip(weights[:-2], basis[:-2]))


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of chiralqed.dynamics.vectorize."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise ValueError("expected a vector")
    dim = math.isqrt(vec.size)
    if dim * dim != vec.size:
        raise ValueError(f"length {vec.size} is not a perfect square")
    return vec.reshape((dim, dim), order="F")


def evolve(lv, rho0: np.ndarray, t_final: float) -> np.ndarray:
    """Propagate a state to t_final: exp(L t_final) applied to vec(rho0).

    scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)) computes the action, so lv may be dense or
    sparse; the result is re-Hermitized, trace-normalized and validated.
    """
    if not scipy.sparse.issparse(lv):
        lv = np.asarray(lv, dtype=complex)
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    rho0 = validate_density_matrix(rho0, context="initial state")
    if t_final == 0:
        return rho0.copy()
    vec = expm_multiply(lv * float(t_final), vectorize(rho0))
    return validate_density_matrix(_finalize(devectorize(vec)), context="evolved state")


def eta(cp: coll.CollectiveParams) -> float:
    """Overlap driving the bright double state from the bright single state."""
    return cp.alpha * cp.u + SQRT2 * cp.w * cp.beta


def sigma(cp: coll.CollectiveParams) -> float:
    """Overlap driving the dark double state from the bright single state."""
    return cp.beta * cp.u - SQRT2 * cp.w * cp.alpha


def collective_rates(cp: coll.CollectiveParams, gamma_chi: float) -> dict[str, float]:
    """Decay rates of the four double-to-single transitions."""
    if gamma_chi < 0:
        raise ValueError("gamma_chi must be nonnegative")
    u, w, al, be = cp.u, cp.w, cp.alpha, cp.beta
    et, sg = eta(cp), sigma(cp)
    return {
        "xi_phi": gamma_chi * (SQRT2 * w * et - be) ** 2,
        "xi_psi": 2.0 * u * u * gamma_chi * et * et,
        "zeta_phi": gamma_chi * (SQRT2 * w * sg + al) ** 2,
        "zeta_psi": 2.0 * u * u * gamma_chi * sg * sg,
    }


@dataclass(frozen=True)
class AnalyticDarkRho:
    rho_11: float
    rho_phiphi: float
    rho_1phi: complex
    purity: float


def analytic_dark_rho(params: SystemParams) -> AnalyticDarkRho:
    """Closed-form stationary density-matrix elements at the dark conditions.

    Refuses (DarkStateError) unless the balanced-rates, balanced-drives,
    zero-sum-detuning, and matched-pump flags all hold; the formula is not a
    controlled approximation away from them.
    """
    report = ds.dark_conditions_double(params)
    needed = ("omega_a_equals_omega_c", "kappa_equals_gamma", "delta_s_zero", "e_matches")
    failed = [name for name in needed if not report.condition_flags[name]]
    if failed:
        raise ds.DarkStateError(
            "analytic steady state not applicable; failed conditions: "
            + ", ".join(failed)
        )
    dp = derive(params)
    gd = dp.g_chi * dp.g_chi + dp.delta * dp.delta
    pumped = 2.0 * params.omega_c**2
    denom = gd + pumped
    if denom == 0.0:
        return AnalyticDarkRho(rho_11=1.0, rho_phiphi=0.0, rho_1phi=0j, purity=1.0)
    rho_11 = gd / denom
    rho_phiphi = pumped / denom
    pf = ds._phase_factor(dp.delta, dp.g_chi)
    if pf is None:
        rho_1phi = 0j
    else:
        rho_1phi = (
            SQRT2 * params.omega_c * math.sqrt(gd) * (pf.conjugate() * (-1j)) / denom
        )
    purity = rho_11 * rho_11 + rho_phiphi * rho_phiphi + 2.0 * abs(rho_1phi) ** 2
    return AnalyticDarkRho(
        rho_11=rho_11, rho_phiphi=rho_phiphi, rho_1phi=rho_1phi, purity=purity
    )


def interference_rates(
    params: SystemParams, c1: complex, c_phi: complex
) -> tuple[complex, complex]:
    """Growth rates of the two double-excitation amplitudes.

    Each double state fills through two routes: direct pair creation out of
    the ground amplitude (pump) and a second drive photon on top of c_phi.
    Both routes share one bracket, so the two rates keep the fixed gauge
    ratio alpha/beta for any pump, and both vanish together at the balanced
    pump from dfs_requirements_double.
    """
    dp = derive(params)
    cp = coll.default_gauge(dp.u, dp.w)
    bracket = params.e_field * complex(c1) + (2.0 * dp.w * params.omega_c) * complex(c_phi)
    return -(cp.alpha / SQRT2) * bracket, -(cp.beta / SQRT2) * bracket


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
