"""Steady states and time evolution of the vectorized master equation."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8
RESIDUAL_TOL = 1e-10
MAX_DIAGNOSIS_DIM = 2500


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


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of vectorize."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise ValueError("expected a vector")
    dim = math.isqrt(vec.size)
    if dim * dim != vec.size:
        raise ValueError(f"length {vec.size} is not a perfect square")
    return vec.reshape((dim, dim), order="F")


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

    The generator is densified for the SVD, so the diagnosis is refused
    above MAX_DIAGNOSIS_DIM rows (n_max = 24 on the full engine, a 95 MiB
    dense copy) rather than attempting a copy that grows as n_max**4.
    """
    d2 = lv.shape[0]
    if d2 > MAX_DIAGNOSIS_DIM:
        raise DegenerateSteadyStateError(
            f"trace-constrained generator is singular and its {d2}x{d2} size "
            f"exceeds the {MAX_DIAGNOSIS_DIM}x{MAX_DIAGNOSIS_DIM} limit of the "
            "dense degeneracy diagnosis"
        )
    if scipy.sparse.issparse(lv):
        lv = lv.toarray()
    u, s, vh = scipy.linalg.svd(lv)
    null_count = int(np.sum(s < DEGENERACY_TOL * s[0]))
    if null_count >= 2:
        raise DegenerateSteadyStateError(
            f"non-unique steady state: null-space dimension {null_count}"
        )
    if null_count == 0:
        raise DegenerateSteadyStateError(
            "no steady state found: generator has an empty null space "
            "at the working tolerance"
        )
    return vh[-1].conj()


def _solve_sparse(constrained, rhs: np.ndarray) -> np.ndarray:
    """SuperLU solutions of the sparse system, one per column of rhs, the
    first refined once on the same factors; NaN if it is singular.

    The ordering is SuperLU's minimum degree on the pattern of A + A^T in
    symmetric mode (MMD_AT_PLUS_A), applied to rows and columns alike with
    the diagonal as the preferred pivot; diag_pivot_thresh stays at its
    default of 1.0, so pivoting stays partial.
    """
    # Imported here so that the dense five-state path does not load it
    # (1.3 MiB of resident memory).
    from scipy.sparse.csgraph import structural_rank

    constrained = constrained.tocsc()
    constrained.eliminate_zeros()
    # A structurally singular system (no full matching of rows to nonzero
    # columns) is exactly singular.  SuperLU reports that too, but on some
    # such inputs only after OpenBLAS has printed illegal-argument messages
    # to stdout.
    if structural_rank(constrained) == constrained.shape[0]:
        try:
            solve = scipy.sparse.linalg.splu(
                constrained, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
            ).solve
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
        else:
            x = np.stack([solve(column) for column in rhs.T], axis=-1)
            x[:, 0] += solve(rhs[:, 0] - constrained @ x[:, 0])
            return x
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


def steady_state(lv) -> np.ndarray:
    """The unique stationary density matrix of a trace-preserving generator.

    lv is a scipy.sparse matrix, a dense (d2, d2) array, or a dense
    (P, d2, d2) stack whose P states come back as a (P, D, D) stack.  One
    row of each generator is replaced by the trace constraint and the
    system solved directly: a sparse one with SuperLU under a symmetric
    minimum-degree ordering, never densified except by the degeneracy
    diagnosis; a dense stack with one batched LAPACK solve.  Uniqueness is
    then probed with one inverse-iteration step, a second right-hand side of
    the same solve: a second independent null vector (tolerance 1e-8
    relative to the generator's scale) raises DegenerateSteadyStateError, as
    does an exactly singular system whose singular-value diagnosis, run
    member by member, finds more than one null direction.
    """
    sparse = scipy.sparse.issparse(lv)
    lv = scipy.sparse.csr_array(lv, dtype=complex) if sparse else np.asarray(lv, dtype=complex)
    d2 = lv.shape[-1]
    dim = math.isqrt(d2)
    if lv.ndim not in (2, 3) or lv.shape[-2] != d2 or dim * dim != d2:
        raise ValueError(f"expected a D^2 x D^2 superoperator, got {lv.shape}")

    trace_row = vectorize(np.eye(dim, dtype=complex))
    rng = np.random.default_rng(20240811)
    probe = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    rhs = np.stack([np.eye(1, d2, dtype=complex)[0], probe], axis=-1)
    if sparse:
        members = [lv]
        trace_csr = scipy.sparse.csr_array(trace_row[np.newaxis, :])
        constrained = scipy.sparse.vstack([trace_csr, lv[1:]], format="csr")
        both = _solve_sparse(constrained, rhs)[np.newaxis]
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

    # Probe for a second null vector with one inverse-iteration step.  A
    # near-degenerate generator amplifies the second null direction enormously
    # under the factorized solve, so a deflated candidate with tiny residual
    # betrays degeneracy even when the direct solve succeeded.
    primary = solution / np.linalg.norm(solution, axis=-1, keepdims=True)
    overlap = np.sum(primary.conj() * candidate, axis=-1, keepdims=True)
    deflated = candidate - overlap * primary
    deflated_norm = np.linalg.norm(deflated, axis=-1)
    deflated /= np.maximum(deflated_norm, 1e-300)[:, np.newaxis]
    probed = ~failed & (deflated_norm > 1e-9 * np.linalg.norm(candidate, axis=-1))
    if np.any(probed & (np.linalg.norm(apply(deflated), axis=-1) < DEGENERACY_TOL * scale)):
        raise DegenerateSteadyStateError("non-unique steady state: found a second null vector")

    rho = _finalize(solution.reshape(-1, dim, dim).swapaxes(1, 2))
    final_residual = np.linalg.norm(apply(rho.swapaxes(1, 2).reshape(-1, d2)), axis=-1)
    too_large = ~failed & (final_residual > RESIDUAL_TOL * scale)
    if np.any(too_large):
        worst = final_residual[too_large].max()
        raise DegenerateSteadyStateError(f"steady-state residual {worst:.3e} exceeds tolerance")
    rho = validate_density_matrix(rho, context="steady state")
    return rho if lv.ndim == 3 else rho[0]


def evolve(lv, rho0: np.ndarray, t_final: float) -> np.ndarray:
    """Propagate a state to t_final: exp(L t_final) applied to vec(rho0).

    The action of the matrix exponential is computed with
    scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)), so lv may be a dense array or a scipy.sparse
    matrix and is never exponentiated as a matrix.  The result is
    re-Hermitized and trace-normalized once, then validated.
    """
    if not scipy.sparse.issparse(lv):
        lv = np.asarray(lv, dtype=complex)
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    rho0 = validate_density_matrix(rho0, context="initial state")
    if t_final == 0:
        return rho0.copy()
    vec = scipy.sparse.linalg.expm_multiply(lv * float(t_final), vectorize(rho0))
    return validate_density_matrix(_finalize(devectorize(vec)), context="evolved state")
