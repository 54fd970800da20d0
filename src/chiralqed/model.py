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
import sys
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .fock_algebra import FockCutoff, composite_operators

if TYPE_CHECKING:  # for annotations; the full engine's code imports scipy itself
    import scipy.sparse


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
        return pump_field(self.e_mag, self.phi_d)


def pump_field(e_mag: float, phi_d: float | np.ndarray) -> complex | np.ndarray:
    """e_mag exp(i phi_d); a (P,) array of phases gives a (P,) array.

    Each phase goes through cmath.exp and Python's complex product, whose
    last places numpy's exp and product need not match.
    """
    if not isinstance(phi_d, np.ndarray):
        return e_mag * cmath.exp(1j * phi_d)
    return np.array([e_mag * cmath.exp(1j * phase) for phase in phi_d.tolist()])


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


def _sqrt(x: float | np.ndarray) -> float | np.ndarray:
    """math.sqrt, elementwise on an array; both are correctly rounded."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def derive(params: SystemParams, **changes: float | np.ndarray) -> DerivedParams:
    """Compute the collective-frame parameters.

    Keyword arguments set fields of params, unchecked.  (P,) arrays there
    give (P,) arrays of the quantities that depend on them, each element
    equal to the scalar result bit for bit.
    """
    p = {**vars(params), **changes}
    kappa, gamma, chi = p["kappa"], p["gamma"], p["chi"]
    total = kappa + gamma
    u = _sqrt(kappa / total)
    w = _sqrt(gamma / total)
    g_chi = 0.5 * (1.0 - chi) * _sqrt(kappa * gamma)
    gamma_chi = (1.0 + chi) * total
    delta_s = 0.5 * (p["delta_c"] + p["delta_a"])
    delta = 0.5 * (p["delta_c"] - p["delta_a"])
    omega_psi = u * p["omega_c"] + w * p["omega_a"]
    omega_phi = w * p["omega_c"] - u * p["omega_a"]
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


def _kron(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.kron of the last two (D, D) axes, broadcast over any leading ones,
    as a (..., D, D, D, D) array; written into out if it is given."""
    return np.multiply(a[..., :, None, :, None], b[..., None, :, None, :], out=out)


def _issparse(x) -> bool:
    """Whether x is a scipy sparse array or matrix.  scipy is imported only
    by the full engine's sparse code, so until scipy.sparse is in
    sys.modules nothing can be one, and the answer is no without importing it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


def lindblad(h, jumps):
    """Generator of -i [h, rho] + sum_c (c rho c+ - 1/2 {c+ c, rho}).

    Assembled as I (x) X + conj(X) (x) I + sum_c conj(c) (x) c with
    X = -i h - 1/2 sum_c c+ c, in the column-stacking convention.  Rates
    live in the jump operators.  Scipy-sparse operators give a CSR array;
    dense ones a dense array.  Dense operators may also be stacks of shape
    (P, D, D), one system per leading index, giving a (P, D^2, D^2) stack.
    """
    dim = h.shape[-1]
    sparse = _issparse(h)
    x = -1j * h
    for c in jumps:
        c_dagger = c.conj().T if sparse else np.swapaxes(c.conj(), -1, -2)
        x = x - 0.5 * (c_dagger @ c)
    if sparse:
        import scipy.sparse

        kron = functools.partial(scipy.sparse.kron, format="csr")
        eye = scipy.sparse.csr_array(np.eye(dim, dtype=complex))
        lv = kron(eye, x) + kron(x.conj(), eye)
        for c in jumps:
            lv = lv + kron(c.conj(), c)
        return lv
    # The further products are added in place, in the same order, so the
    # result is the sum of the np.kron terms bit for bit.  A stack takes them
    # one row block at a time, through a buffer a D-th of its size that the
    # allocator reuses rather than mapping fresh pages for.
    eye = np.eye(dim, dtype=complex)
    lv = _kron(eye, x)
    height = 1 if lv.ndim > 4 else dim
    block = np.empty((*lv.shape[:-4], height, *lv.shape[-3:]), dtype=complex)
    for a, b in [(x.conj(), eye)] + [(c.conj(), c) for c in jumps]:
        for i in range(0, dim, height):
            lv[..., i:i + height, :, :, :] += _kron(a[..., i:i + height, :], b, out=block)
    return lv.reshape(*lv.shape[:-4], dim * dim, dim * dim)


def _weights(params: SystemParams) -> tuple[list[float], list[float]]:
    """Real coordinates of the generator in the affine terms of _terms.

    The first list weights _hermitian_basis: the detunings, then the
    quadratures (Re c, Im c) of each coupling c O + conj(c) O+, for O = a^2
    (pair pump), a and sigma (drives) and sigma+ a (the cascaded exchange
    H_R + H_L).  The second weights the dissipator blocks by the real
    coordinates of the rate matrix Gamma = sum_c alpha_c alpha_c+ of the jump
    amplitudes alpha_c on (a, sigma): Gamma_aa, Gamma_ss, Re and Im Gamma_as.
    """
    p = cmath.rect(1.0, math.remainder(params.x_phase, math.tau))
    root = math.sqrt(params.kappa * params.gamma)
    couplings = (
        0.5j * params.e_field.conjugate(),
        1j * params.omega_c,
        1j * params.omega_a,
        -0.5j * root * (p - params.chi * p.conjugate()),
    )
    hamiltonian = [params.delta_c, params.delta_a]
    for c in couplings:
        hamiltonian += [c.real, c.imag]
    channels = (
        (p * math.sqrt(params.kappa), math.sqrt(params.gamma)),
        (math.sqrt(params.chi * params.kappa), p * math.sqrt(params.chi * params.gamma)),
    )
    cross = sum(c_a * c_s.conjugate() for c_a, c_s in channels)
    rates = [
        sum((c_a * c_a.conjugate()).real for c_a, _ in channels),
        sum((c_s * c_s.conjugate()).real for _, c_s in channels),
        cross.real,
        cross.imag,
    ]
    return hamiltonian, rates


def _hermitian_basis(cutoff: FockCutoff) -> tuple[np.ndarray, ...]:
    """a+ a, sigma+ sigma, then O + O+ and i (O - O+) for O = a^2, a, sigma, sigma+ a."""
    a, sm = composite_operators(cutoff)
    ad, sp = a.conj().T, sm.conj().T
    basis = [ad @ a, sp @ sm]
    for op in (a @ a, a, sm, sp @ a):
        basis += [op + op.conj().T, 1j * (op - op.conj().T)]
    return tuple(basis)


@dataclass(frozen=True)
class _Terms:
    """Fixed generator terms on one shared CSR pattern.

    Term k has the values `values[k]` at the entries `positions[k]` of the
    pattern (indptr, indices); a generator is their real-weighted sum.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    positions: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]


def _entry_keys(matrix: scipy.sparse.csr_array) -> np.ndarray:
    """row * width + column of each stored entry of a canonical CSR matrix, in order."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return rows * matrix.shape[1] + matrix.indices


@functools.lru_cache(maxsize=4)
def _terms(cutoff: FockCutoff) -> _Terms:
    """The Hamiltonian terms, then the dissipator blocks, of a generator at a cutoff.

    Each comes from lindblad: a Hermitian basis element with no jumps, or a
    dissipator block with a zero Hamiltonian.  The cross blocks come by
    polarisation: D[a + sigma] - D[a] - D[sigma] is weighted by Re Gamma_as
    and D[a - i sigma] - D[a] - D[sigma] by Im Gamma_as.
    """
    import scipy.sparse

    csr = scipy.sparse.csr_array
    a, sm = (csr(op) for op in composite_operators(cutoff))
    zero = csr(a.shape, dtype=complex)
    terms = [lindblad(csr(b), []) for b in _hermitian_basis(cutoff)]
    decay_a, decay_s = lindblad(zero, [a]), lindblad(zero, [sm])
    terms += [
        decay_a,
        decay_s,
        lindblad(zero, [a + sm]) - decay_a - decay_s,
        lindblad(zero, [a - 1j * sm]) - decay_a - decay_s,
    ]
    # A sum of absolute values cannot cancel, so it holds every entry of every term.
    pattern = sum(abs(term) for term in terms)
    keys = _entry_keys(pattern)
    positions = tuple(
        np.searchsorted(keys, _entry_keys(term)).astype(pattern.indices.dtype) for term in terms
    )
    values = tuple(term.data for term in terms)
    for array in (pattern.indptr, pattern.indices, *positions, *values):
        array.flags.writeable = False
    return _Terms(pattern.shape, pattern.indptr, pattern.indices, positions, values)


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

    The generator is affine in the parameters: L = sum_k w_k T_k over 14
    fixed sparse terms, ten from a Hermitian basis of the Hamiltonian and
    four dissipator blocks weighted by the rate matrix of the two jumps (see
    _weights).  The terms are built with lindblad once per cutoff and
    cached, so a call costs one scatter-add of each term into a fresh
    array.  The placement phase is argument-reduced first, so multiples of
    2 pi reproduce the reference generator entrywise.  The result owns its
    arrays; call .toarray() on it for the dense matrix.
    """
    import scipy.sparse

    terms = _terms(cutoff)
    hamiltonian, rates = _weights(params)
    data = np.zeros(terms.indices.size, dtype=complex)
    for weight, positions, values in zip(hamiltonian + rates, terms.positions, terms.values):
        if weight:
            np.add.at(data, positions, weight * values)
    return scipy.sparse.csr_array(
        (data, terms.indices.copy(), terms.indptr.copy()), shape=terms.shape
    )


def build_undriven_liouvillian(params: SystemParams, cutoff: FockCutoff) -> scipy.sparse.csr_array:
    """The generator L0 of the same point without its drives and pair pump.

    L0 is build_liouvillian with omega_c = omega_a = e_mag = 0, from the same
    cached terms.  It conserves the excitation number on each side of rho
    and its jumps only lower it, so it is block-triangular and SuperLU
    factorises it almost without fill; steady_state refines a weakly driven
    point's state on those factors.
    """
    return build_liouvillian(replace(params, omega_c=0.0, omega_a=0.0, e_mag=0.0), cutoff)
