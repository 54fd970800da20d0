"""Steady states of the vectorized master equation."""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import _issparse

if TYPE_CHECKING:  # for annotations; the full engine's code imports scipy itself
    import scipy.sparse

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8
RESIDUAL_TOL = 1e-10
MAX_DIAGNOSIS_DIM = 2500
# Refinement of a sparse solve (see _refine and _refine_wide): float64 steps
# must shrink by CONTRACTION until below FLOAT_FLOOR of x; long-double steps
# end once entries above GRADE_FLOOR of the largest move by WIDE_TOL or less.
CONTRACTION = 0.5
FLOAT_FLOOR = 2.0**-40
WIDE_TOL = 2.0**-56
GRADE_FLOOR = 2.0**-20
MAX_WIDE_STEPS = 12


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one steady state at the working tolerance."""


class PositivityError(RuntimeError):
    """A state's spectrum dipped below the allowed floor."""


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.flatten(order="F")


def validate_density_matrix(rho: np.ndarray, context: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace, and the positivity floor.

    rho may also be a (P, D, D) stack, checked at once; each defect reported
    is then the worst member's.  Positivity is asserted rather than silently
    repaired: a spectrum below the floor indicates a numerical problem upstream.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{context}: expected a square matrix, got {rho.shape}")
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    herm_defect = np.abs(rho - adjoint).max()
    if herm_defect > HERMITICITY_TOL:
        raise ValueError(f"{context}: Hermiticity defect {herm_defect:.3e}")
    trace_defect = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if trace_defect > TRACE_TOL:
        raise ValueError(f"{context}: trace defect {trace_defect:.3e}")
    lowest = np.linalg.eigvalsh(0.5 * (rho + adjoint))[..., 0].min()
    if lowest < EIGENVALUE_FLOOR:
        raise PositivityError(f"{context}: eigenvalue {lowest:.3e} below floor {EIGENVALUE_FLOOR}")
    return rho


def _finalize(candidate: np.ndarray) -> np.ndarray:
    rho = 0.5 * (candidate + np.swapaxes(candidate.conj(), -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]


def _diagnose_degeneracy(lv) -> np.ndarray:
    """Full singular-value diagnosis; returns the null vector if unique.

    The generator is densified for the SVD, so the diagnosis is refused above
    MAX_DIAGNOSIS_DIM rows (n_max = 24 on the full engine, a 95 MiB copy).
    """
    d2 = lv.shape[0]
    if d2 > MAX_DIAGNOSIS_DIM:
        raise DegenerateSteadyStateError(
            f"trace-constrained generator is singular and its {d2}x{d2} size exceeds the "
            f"{MAX_DIAGNOSIS_DIM}x{MAX_DIAGNOSIS_DIM} limit of the dense degeneracy diagnosis"
        )
    if _issparse(lv):
        lv = lv.toarray()
    u, s, vh = np.linalg.svd(lv)
    null_count = int(np.sum(s < DEGENERACY_TOL * s[0]))
    if null_count >= 2:
        raise DegenerateSteadyStateError(
            f"non-unique steady state: null-space dimension {null_count}"
        )
    if null_count == 0:
        raise DegenerateSteadyStateError(
            "no steady state found: generator has an empty null space at the working tolerance"
        )
    return vh[-1].conj()


class _System(NamedTuple):
    """A point's trace-constrained system: lv with the trace row in place of row 0."""

    csr: scipy.sparse.csr_array
    nnz = property(lambda self: self.csr.nnz)

    def csc(self) -> scipy.sparse.csc_array:
        return self.csr.tocsc()

    @property
    def full_rank(self) -> bool:
        """Structurally; if not, the system is exactly singular, which SuperLU
        says on some systems only after OpenBLAS printed errors to stdout."""
        from scipy.sparse.csgraph import structural_rank  # not on the dense path: 1.3 MiB
        return structural_rank(self.csr) == self.csr.shape[0]


@functools.lru_cache(maxsize=4)
def _constants(d2: int) -> tuple[np.ndarray, np.ndarray]:
    """The trace row and the right-hand sides (trace constraint, seeded probe), read-only."""
    trace_row = vectorize(np.eye(math.isqrt(d2), dtype=complex))
    rng = np.random.default_rng(20240811)
    probe = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    rhs = np.stack([np.eye(1, d2, dtype=complex)[0], probe], axis=-1)
    trace_row.flags.writeable = rhs.flags.writeable = False
    return trace_row, rhs


def _system(lv) -> _System:
    """lv's trace-constrained system: the trace row's D ones in place of row 0
    of lv's CSR arrays, in new arrays whose explicit zeros are eliminated."""
    import scipy.sparse

    lv = scipy.sparse.csr_array(lv, dtype=complex)
    dim, first, index = math.isqrt(lv.shape[0]), lv.indptr[1], lv.indices.dtype
    csr = scipy.sparse.csr_array((
        np.concatenate([np.ones(dim, dtype=complex), lv.data[first:]]),
        np.concatenate([np.arange(0, dim * dim, dim + 1, dtype=index), lv.indices[first:]]),
        np.concatenate([np.zeros(1, dtype=lv.indptr.dtype), lv.indptr[1:] - first + dim]),
    ), shape=lv.shape)
    csr.eliminate_zeros()
    return _System(csr)


def _factorize(system: _System):
    """SuperLU's solve (MMD_AT_PLUS_A, symmetric mode) of a system; None if exactly singular."""
    if not system.full_rank:
        return None
    import scipy.sparse.linalg

    try:
        return scipy.sparse.linalg.splu(
            system.csc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
        ).solve
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _residual_wide(wide, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x, wide and x in np.clongdouble: scipy's CSR product sums each row in long double."""
    return b - wide @ x


def _refine(system, solve, b: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Solve A x = b by the refinement x <- x + F^-1 (b - A x), where solve applies F^-1.

    Each step, in norm relative to x, must be at most CONTRACTION times the
    one before.  The refinement ends at a step below tol, or at the first
    step that fails to halve; that step is dropped.  Returns x and whether
    the steps contracted: true unless a step failed to halve while the
    steps were still above FLOAT_FLOOR, where the float64 residual is not
    yet at its rounding noise.
    """
    x = solve(b)
    last = np.inf
    while True:  # each accepted step at most halves the last, so tol is reached
        step = solve(b - system @ x)
        size = np.linalg.norm(step) / np.linalg.norm(x)
        if not size <= CONTRACTION * last:
            return x, last <= FLOAT_FLOOR
        x = x + step
        last = size
        if size <= tol:
            return x, True


def _refine_wide(system, solve, b: np.ndarray, x: np.ndarray, undriven: bool) -> np.ndarray:
    """Go on refining x with long-double residuals, on one np.clongdouble copy
    of the system; x is held in long double and rounded once.  The steps end
    once no entry of x above GRADE_FLOOR times the largest moves by more than
    WIDE_TOL of itself, or after MAX_WIDE_STEPS.  On the undriven factors each
    step settles about one more excitation level, so moves need not shrink;
    on the system's own, a step that fails to halve is noise and ends them.
    """
    wide = system.astype(np.clongdouble)
    x_wide = x.astype(np.clongdouble)
    last = np.inf
    for _ in range(MAX_WIDE_STEPS):
        step = solve(_residual_wide(wide, b, x_wide).astype(complex))
        scale = np.maximum(np.abs(x), GRADE_FLOOR * np.abs(x).max())
        move = np.max(np.abs(step) / scale)
        if not (undriven or move <= CONTRACTION * last):
            break
        x_wide += step
        x = x_wide.astype(complex)
        if move <= WIDE_TOL:
            break
        last = move
    return x


def _solve_sparse(constrained, rhs: np.ndarray, undriven=None) -> np.ndarray:
    """Refined solutions of a constrained _System for the two columns of rhs,
    the trace constraint and the probe; NaN if the system is singular.  The
    factors are the undriven system's if it is given, SuperLU factorises it,
    and the steps of both columns contract; otherwise the system's own."""
    (b, probe), system = rhs.T, constrained.csr
    for factors in [m for m in (undriven, constrained) if m is not None]:
        solve, own = _factorize(factors), factors is constrained
        if solve is None:
            continue
        solution, contracted = _refine(system, solve, b, WIDE_TOL)
        if contracted or own:
            candidate, contracted = _refine(system, solve, probe, FLOAT_FLOOR)
        if contracted or own:
            solution = _refine_wide(system, solve, b, solution, undriven=not own)
            return np.stack([solution, candidate], axis=-1)
    return np.full(rhs.shape, np.nan, dtype=complex)


def _solve_dense(constrained: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One batched LAPACK solve of a (P, d2, d2) stack; NaN for a member
    that is exactly singular, found by solving the stack one at a time."""
    try:
        return np.linalg.solve(constrained, rhs)
    except np.linalg.LinAlgError:
        if len(constrained) == 1:
            return np.full((1, *rhs.shape), np.nan, dtype=complex)
        return np.concatenate([_solve_dense(c[np.newaxis], rhs) for c in constrained])


def steady_state(lv, undriven=None) -> np.ndarray:
    """The unique stationary density matrix of a trace-preserving generator.

    lv is a scipy.sparse matrix, a dense (d2, d2) array, or a dense
    (P, d2, d2) stack whose P states come back as a (P, D, D) stack.  Row 0
    of each generator is replaced by the trace row.  A dense stack is solved
    with one batched LAPACK solve, a sparse system A x = b by the refinement
    x <- x + F^-1 (b - A x), where F is a SuperLU factorisation under a
    symmetric minimum-degree ordering.

    undriven, taken only with a sparse lv, is the same point's generator L0
    without drives and pair pump (model.build_undriven_liouvillian), which
    is block-triangular in the excitation number and factorises almost
    without fill.  F is its factors when it is structurally full rank,
    SuperLU factorises it, and every step is at most half the one before
    until below 2^-40 of x; otherwise F factorises A.  The point alone
    decides.  The step ratio estimates the spectral radius of F^-1 (A - F),
    which must be below 1: an estimate, not a proof of uniqueness.

    The trace column then gets residuals from scipy's CSR product in
    np.clongdouble, with x held in long double and rounded once, until no
    entry of x above 2^-20 of the largest moves by more than 2^-56 of itself
    (at most 12 steps); otherwise float64 residual noise would stay in the
    small entries that two-excitation populations read.

    On every path, uniqueness is probed with one inverse-iteration step on
    the same factors: a second null vector (a deflated unit candidate d with
    ||L d|| below 1e-8 of || |L| |d| ||, L's componentwise scale on d) raises
    DegenerateSteadyStateError, as does an exactly singular system whose
    singular-value diagnosis (member by member) finds several.
    """
    sparse = _issparse(lv)
    if sparse:
        import scipy.sparse.linalg

        lv = scipy.sparse.csr_array(lv, dtype=complex)
    else:
        lv = np.asarray(lv, dtype=complex)
    d2 = lv.shape[-1]
    dim = math.isqrt(d2)
    if lv.ndim not in (2, 3) or lv.shape[-2] != d2 or dim * dim != d2:
        raise ValueError(f"expected a D^2 x D^2 superoperator, got {lv.shape}")

    if undriven is not None and (not sparse or undriven.shape != lv.shape):
        raise ValueError("undriven is taken only with a sparse lv of the same shape")
    trace_row, rhs = _constants(d2)
    if sparse:
        members, system = [lv], _system(lv)
        preconditioner = None if undriven is None else _system(undriven)
        both = _solve_sparse(system, rhs, preconditioner)[np.newaxis]
        scale = np.array([scipy.sparse.linalg.norm(lv)])
        apply = lambda vecs: (lv @ vecs.T).T
    else:
        members = lv.reshape(-1, d2, d2)
        constrained = members.copy()
        constrained[:, 0, :] = trace_row
        both = _solve_dense(constrained, rhs)
        scale = np.linalg.norm(members, axis=(1, 2))
        apply = lambda vecs: (members @ vecs[..., np.newaxis])[..., 0]
    solution, candidate = both[..., 0], both[..., 1]

    norms = np.maximum(np.linalg.norm(solution, axis=-1), 1e-300)
    residual = np.linalg.norm(apply(solution), axis=-1) / norms
    failed = ~np.all(np.isfinite(solution), axis=-1) | (residual > 1e-6 * np.maximum(scale, 1.0))
    for k in np.flatnonzero(failed):
        # The direct solve degenerated; fall back to the full diagnosis.
        null_vec = _diagnose_degeneracy(members[k])
        trace = trace_row @ null_vec
        if abs(trace) < 1e-12:
            raise DegenerateSteadyStateError(
                "non-unique steady state: the only null vector is traceless"
            )
        solution[k], candidate[k] = null_vec / trace, 0.0

    # A near-degenerate generator amplifies a second null direction enormously
    # in the probe's solve: a deflated candidate with tiny residual betrays it.
    primary = solution / np.linalg.norm(solution, axis=-1, keepdims=True)
    overlap = np.sum(primary.conj() * candidate, axis=-1, keepdims=True)
    deflated = candidate - overlap * primary
    deflated_norm = np.linalg.norm(deflated, axis=-1)
    deflated /= np.maximum(deflated_norm, 1e-300)[:, np.newaxis]
    probed = ~failed & (deflated_norm > 1e-9 * np.linalg.norm(candidate, axis=-1))
    deflated_residual = np.linalg.norm(apply(deflated), axis=-1)
    # The residual is measured against L's componentwise scale on the unit
    # candidate, || |L| |d| ||, which unlike ||L||_F does not grow with the
    # cutoff.  It is at most ||L||_F, so only members below that bound need it.
    for k in np.flatnonzero(probed & (deflated_residual < DEGENERACY_TOL * scale)):
        margin = np.linalg.norm(abs(members[k]) @ np.abs(deflated[k]))
        if deflated_residual[k] < DEGENERACY_TOL * margin:
            raise DegenerateSteadyStateError("non-unique steady state: found a second null vector")

    rho = _finalize(solution.reshape(-1, dim, dim).swapaxes(1, 2))
    final_residual = np.linalg.norm(apply(rho.swapaxes(1, 2).reshape(-1, d2)), axis=-1)
    too_large = ~failed & (final_residual > RESIDUAL_TOL * scale)
    if np.any(too_large):
        worst = final_residual[too_large].max()
        raise DegenerateSteadyStateError(f"steady-state residual {worst:.3e} exceeds tolerance")
    rho = validate_density_matrix(rho, context="steady state")
    return rho if lv.ndim == 3 else rho[0]

