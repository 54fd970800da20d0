"""Physical parameters, the system Hamiltonian, and the master-equation generator.

Everything is expressed in units of the right-moving cavity decay rate kappa.
The vectorization convention is column stacking throughout the package:
vec(A rho B) = (B^T kron A) vec(rho), so left multiplication by A is
kron(I, A) and right multiplication by B is kron(B^T, I).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse

from .fock_algebra import FockCutoff, composite_operators


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs for the waveguide-coupled cavity and atom.

    kappa and gamma are the right-moving decay rates of the cavity and the
    atom; chi in [0, 1] is the left/right coupling asymmetry (0 means fully
    directional emission, 1 means symmetric).  delta_c and delta_a are the
    cavity and atom detunings from the drive laser, omega_c and omega_a the
    coherent drive Rabi rates, and the intracavity pair pump has complex
    amplitude e_mag * exp(i * phi_d).  x_phase is the propagation phase
    accumulated between the two coupling points; zero is the reference
    placement and the generator is periodic in it with period 2 pi.
    """

    kappa: float = 1.0
    gamma: float = 1.0
    chi: float = 0.0
    delta_c: float = 0.0
    delta_a: float = 0.0
    omega_c: float = 0.0
    omega_a: float = 0.0
    e_mag: float = 0.0
    phi_d: float = 0.0
    x_phase: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.chi <= 1.0:
            raise ValueError(f"chi must lie in [0, 1], got {self.chi}")
        for name in ("omega_c", "omega_a", "e_mag"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    @property
    def e_field(self) -> complex:
        """Complex pair-pump amplitude."""
        return self.e_mag * cmath.exp(1j * self.phi_d)


@dataclass(frozen=True)
class DerivedParams:
    """Collective-frame quantities computed from SystemParams.

    u and w weight the cavity and atom parts of the bright polariton
    (u^2 + w^2 = 1); g_chi is the chirality-induced coherent coupling between
    the bright and dark polaritons and gamma_chi the collective decay rate.
    delta_s and delta are the mean and half-difference of the two detunings,
    and omega_psi / omega_phi the bright and dark drive combinations.

    theta is the phase of the complex number (2 u w delta + i g_chi).  When
    both parts vanish the phase carries no information; theta is then set to
    0.0 and theta_defined is False so callers can branch on it.
    """

    u: float
    w: float
    g_chi: float
    gamma_chi: float
    delta_s: float
    delta: float
    omega_psi: float
    omega_phi: float
    theta: float
    theta_defined: bool = True


def derive(params: SystemParams) -> DerivedParams:
    """Compute the collective-frame parameters."""
    total = params.kappa + params.gamma
    u = math.sqrt(params.kappa / total)
    w = math.sqrt(params.gamma / total)
    g_chi = 0.5 * (1.0 - params.chi) * math.sqrt(params.kappa * params.gamma)
    gamma_chi = (1.0 + params.chi) * total
    delta_s = 0.5 * (params.delta_c + params.delta_a)
    delta = 0.5 * (params.delta_c - params.delta_a)
    omega_psi = u * params.omega_c + w * params.omega_a
    omega_phi = w * params.omega_c - u * params.omega_a
    cross = 2.0 * u * w * delta
    defined = not (g_chi == 0.0 and cross == 0.0)
    theta = math.atan2(g_chi, cross) if defined else 0.0
    return DerivedParams(
        u=u,
        w=w,
        g_chi=g_chi,
        gamma_chi=gamma_chi,
        delta_s=delta_s,
        delta=delta,
        omega_psi=omega_psi,
        omega_phi=omega_phi,
        theta=theta,
        theta_defined=defined,
    )


def _left(op: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(op.shape[0], dtype=complex), op)


def _right(op: np.ndarray) -> np.ndarray:
    return np.kron(op.T, np.eye(op.shape[0], dtype=complex))


def _sparse_kron(left: np.ndarray, right: np.ndarray):
    return scipy.sparse.kron(
        scipy.sparse.csr_array(left), scipy.sparse.csr_array(right), format="csr"
    )


def dissipator(collapse: np.ndarray, rate: float) -> np.ndarray:
    """Superoperator for (rate/2) (2 c rho c+ - c+ c rho - rho c+ c)."""
    cdc = collapse.conj().T @ collapse
    sandwich = np.kron(collapse.conj(), collapse)
    return 0.5 * rate * (2.0 * sandwich - _left(cdc) - _right(cdc))


def build_hamiltonian(params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """Hermitian generator: detunings, pair pump, and coherent drives."""
    a, sm = composite_operators(cutoff)
    ad = a.conj().T
    sp = sm.conj().T
    e = params.e_field
    h = params.delta_c * (ad @ a) + params.delta_a * (sp @ sm)
    h = h + 0.5j * (e.conjugate() * (a @ a) - e * (ad @ ad))
    h = h + 1j * (params.omega_c * a + params.omega_a * sm)
    h = h - 1j * (params.omega_c * ad + params.omega_a * sp)
    return h


def build_liouvillian(params: SystemParams, cutoff: FockCutoff) -> scipy.sparse.csr_array:
    """Master-equation generator L with vec(rho_dot) = L vec(rho), as sparse CSR.

    At the reference placement (x_phase a multiple of 2 pi) the dissipation
    consists of local cavity and atom decay at rates kappa (1 + chi) and
    gamma (1 + chi) plus directional cross terms at sqrt(kappa gamma) in the
    forward direction and chi sqrt(kappa gamma) in the backward direction.
    A general placement scales both cross terms by cos(x_phase) and adds the
    coherent exchange omega_ac (sigma+ a + a+ sigma-) with
    omega_ac = sqrt(kappa gamma) sin(x_phase).

    The placement phase is argument-reduced before taking cos and sin, so
    multiples of 2 pi reproduce the reference generator entrywise.

    Every term is a left multiplication, a right multiplication or a
    sandwich, so L is assembled from four sparse Kronecker products,
    I (x) X_L + X_R^T (x) I + a* (x) J_a + sigma* (x) J_sigma, with small
    dense D x D factors.  Call .toarray() on the result for the dense matrix.
    """
    a, sm = composite_operators(cutoff)
    ad = a.conj().T
    sp = sm.conj().T
    ad_sm = ad @ sm
    sp_a = sp @ a
    rate_a = params.kappa * (1.0 + params.chi)
    rate_s = params.gamma * (1.0 + params.chi)
    root = math.sqrt(params.kappa * params.gamma)
    x = math.remainder(params.x_phase, math.tau)
    cross = root * math.cos(x)
    coherent = build_hamiltonian(params, cutoff) + root * math.sin(x) * (sp_a + ad_sm)
    sink = -0.5 * (rate_a * (ad @ a) + rate_s * (sp @ sm))
    # The forward cross term (the cavity output drives the atom) puts
    # sigma+ a on the left and a+ sigma on the right; the backward one,
    # weighted by chi, the reverse.  Both feed the same sandwich terms.
    x_left = -1j * coherent + sink - cross * (sp_a + params.chi * ad_sm)
    x_right = 1j * coherent + sink - cross * (ad_sm + params.chi * sp_a)
    sandwich = (1.0 + params.chi) * cross

    eye = np.eye(cutoff.dim, dtype=complex)
    lv = (
        _sparse_kron(eye, x_left)
        + _sparse_kron(x_right.T, eye)
        + _sparse_kron(a.conj(), rate_a * a + sandwich * sm)
        + _sparse_kron(sm.conj(), rate_s * sm + sandwich * a)
    )
    return scipy.sparse.csr_array(lv)
