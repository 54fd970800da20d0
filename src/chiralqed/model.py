"""Physical parameters, the system Hamiltonian, and the master-equation generator.

Everything is expressed in units of the right-moving cavity decay rate kappa.
The vectorization convention is column stacking throughout the package:
vec(A rho B) = (B^T kron A) vec(rho), so left multiplication by A is
kron(I, A) and right multiplication by B is kron(B^T, I).
"""

from __future__ import annotations

import cmath
import functools
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
    """

    u: float
    w: float
    g_chi: float
    gamma_chi: float
    delta_s: float
    delta: float
    omega_psi: float
    omega_phi: float


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
    return DerivedParams(
        u=u,
        w=w,
        g_chi=g_chi,
        gamma_chi=gamma_chi,
        delta_s=delta_s,
        delta=delta,
        omega_psi=omega_psi,
        omega_phi=omega_phi,
    )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, broadcast over any leading ones."""
    outer = a[..., :, None, :, None] * b[..., None, :, None, :]
    return outer.reshape(*outer.shape[:-4], a.shape[-2] * b.shape[-2], -1)


def lindblad(h, jumps):
    """Generator of -i [h, rho] + sum_c (c rho c+ - 1/2 {c+ c, rho}).

    Assembled as I (x) X + conj(X) (x) I + sum_c conj(c) (x) c with
    X = -i h - 1/2 sum_c c+ c, in the column-stacking convention.  Rates
    live in the jump operators.  Scipy-sparse operators give a CSR array;
    dense ones a dense array.  Dense operators may also be stacks of shape
    (P, D, D), one system per leading index, giving a (P, D^2, D^2) stack.
    """
    dim = h.shape[-1]
    sparse = scipy.sparse.issparse(h)
    if sparse:
        kron = functools.partial(scipy.sparse.kron, format="csr")
        eye = scipy.sparse.csr_array(np.eye(dim, dtype=complex))
    else:
        kron = _kron
        eye = np.eye(dim, dtype=complex)
    x = -1j * h
    for c in jumps:
        c_dagger = c.conj().T if sparse else np.swapaxes(c.conj(), -1, -2)
        x = x - 0.5 * (c_dagger @ c)
    lv = kron(eye, x) + kron(x.conj(), eye)
    for c in jumps:
        lv = lv + kron(c.conj(), c)
    return lv


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

    The cavity and the atom are cascaded through both waveguide directions
    (Gardiner, PRL 70, 2269 (1993); Carmichael, PRL 70, 2273 (1993)), each
    direction an SLH series product.  With p = exp(i x_phase), the
    right-moving channel carries the cavity output on to the atom:
    jump c_R = sqrt(gamma) sigma + p sqrt(kappa) a and Hamiltonian
    H_R = (1/2i) sqrt(kappa gamma) (p sigma+ a - conj(p) a+ sigma).  The
    left-moving channel, present when chi > 0, runs the other way:
    c_L = sqrt(chi kappa) a + p sqrt(chi gamma) sigma and
    H_L = (1/2i) chi sqrt(kappa gamma) (p a+ sigma - conj(p) sigma+ a).
    At chi = 0 no atomic parameter reaches the cavity's reduced state.

    The placement phase is argument-reduced first, so multiples of 2 pi
    reproduce the reference generator entrywise.  Call .toarray() on the
    result for the dense matrix.
    """
    a, sm = composite_operators(cutoff)
    sp_a = sm.conj().T @ a
    ad_sm = a.conj().T @ sm
    p = cmath.rect(1.0, math.remainder(params.x_phase, math.tau))
    root = math.sqrt(params.kappa * params.gamma)
    h = build_hamiltonian(params, cutoff)
    h = h - 0.5j * root * (p * sp_a - p.conjugate() * ad_sm)
    h = h - 0.5j * params.chi * root * (p * ad_sm - p.conjugate() * sp_a)
    jumps = [math.sqrt(params.gamma) * sm + p * math.sqrt(params.kappa) * a]
    if params.chi > 0:
        jumps.append(
            math.sqrt(params.chi * params.kappa) * a
            + p * math.sqrt(params.chi * params.gamma) * sm
        )
    csr = scipy.sparse.csr_array
    return lindblad(csr(h), [csr(c) for c in jumps])
