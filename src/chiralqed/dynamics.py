"""Steady states and time evolution of the vectorized master equation."""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable

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

    Positivity is asserted rather than silently repaired: a spectrum below
    the floor indicates a genuine numerical problem upstream.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{context}: expected a square matrix, got {rho.shape}")
    herm_defect = np.abs(rho - rho.conj().T).max()
    if herm_defect > HERMITICITY_TOL:
        raise ValueError(f"{context}: Hermiticity defect {herm_defect:.3e}")
    trace_defect = abs(rho.trace() - 1.0)
    if trace_defect > TRACE_TOL:
        raise ValueError(f"{context}: trace defect {trace_defect:.3e}")
    lowest = scipy.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
    if lowest < EIGENVALUE_FLOOR:
        raise PositivityError(
            f"{context}: eigenvalue {lowest:.3e} below floor {EIGENVALUE_FLOOR}"
        )
    return rho


def _finalize(candidate: np.ndarray) -> np.ndarray:
    rho = 0.5 * (candidate + candidate.conj().T)
    return rho / rho.trace().real


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


def _factorize(constrained) -> Callable[[np.ndarray], np.ndarray] | None:
    """A solver for the trace-constrained system, or None if it is singular.

    Sparse generators go to SuperLU with its default COLAMD ordering; dense
    ones to LAPACK, which is faster at the five-state engine's 25x25 size.
    """
    if scipy.sparse.issparse(constrained):
        # Imported here so that the dense five-state path does not load it
        # (1.3 MiB of resident memory).
        from scipy.sparse.csgraph import structural_rank

        constrained = constrained.tocsc()
        constrained.eliminate_zeros()
        # A structurally singular system (no full matching of rows to
        # nonzero columns) is exactly singular.  SuperLU reports that too,
        # but on some such inputs only after OpenBLAS has printed
        # illegal-argument messages to stdout.
        if structural_rank(constrained) < constrained.shape[0]:
            return None
        try:
            return scipy.sparse.linalg.splu(constrained).solve
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            return None
    try:
        with warnings.catch_warnings():
            # Singular pivots are an expected outcome here (degenerate null
            # space); the caller's checks and fallback diagnose them properly.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(constrained)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    return lambda rhs: scipy.linalg.lu_solve(factors, rhs)


def steady_state(lv) -> np.ndarray:
    """The unique stationary density matrix of a trace-preserving generator.

    lv is a dense array or a scipy.sparse matrix; a sparse one is factorized
    with SuperLU and never densified except by the degeneracy diagnosis.
    One row of the generator is replaced by the trace constraint and the
    resulting linear system solved directly.  Uniqueness is then probed with
    one inverse-iteration step reusing the factorization: a second
    independent null vector (tolerance 1e-8 relative to the generator's
    scale) raises DegenerateSteadyStateError, as does an exactly singular
    trace-constrained system whose singular-value diagnosis finds more than
    one null direction.
    """
    sparse = scipy.sparse.issparse(lv)
    lv = scipy.sparse.csr_array(lv, dtype=complex) if sparse else np.asarray(lv, dtype=complex)
    d2 = lv.shape[0]
    dim = math.isqrt(d2)
    if lv.ndim != 2 or lv.shape != (d2, d2) or dim * dim != d2:
        raise ValueError(f"expected a D^2 x D^2 superoperator, got {lv.shape}")

    trace_row = vectorize(np.eye(dim, dtype=complex))
    if sparse:
        constrained = scipy.sparse.vstack(
            [scipy.sparse.csr_array(trace_row[np.newaxis, :]), lv[1:]], format="csr"
        )
        scale = scipy.sparse.linalg.norm(lv)
    else:
        constrained = lv.copy()
        constrained[0, :] = trace_row
        scale = np.linalg.norm(lv)
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0

    solve = _factorize(constrained)
    solution = None if solve is None else solve(rhs)
    if solution is not None:
        residual = np.linalg.norm(lv @ solution) / max(np.linalg.norm(solution), 1e-300)
        if not np.all(np.isfinite(solution)) or residual > 1e-6 * max(scale, 1.0):
            solution = None

    if solution is None:
        # The direct solve degenerated; fall back to the full diagnosis.
        null_vec = _diagnose_degeneracy(lv)
        trace = trace_row @ null_vec
        if abs(trace) < 1e-12:
            raise DegenerateSteadyStateError(
                "non-unique steady state: the only null vector is traceless"
            )
        rho = _finalize(devectorize(null_vec / trace))
        return validate_density_matrix(rho, context="steady state")

    # Probe for a second null vector with one inverse-iteration step.  A
    # near-degenerate generator amplifies the second null direction enormously
    # under the factorized solve, so a deflated candidate with tiny residual
    # betrays degeneracy even when the direct solve succeeded.
    rng = np.random.default_rng(20240811)
    probe = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    candidate = solve(probe)
    primary = solution / np.linalg.norm(solution)
    deflated = candidate - (primary.conj() @ candidate) * primary
    deflated_norm = np.linalg.norm(deflated)
    if deflated_norm > 1e-9 * np.linalg.norm(candidate):
        deflated /= deflated_norm
        if np.linalg.norm(lv @ deflated) < DEGENERACY_TOL * scale:
            raise DegenerateSteadyStateError(
                "non-unique steady state: found a second null vector"
            )

    rho = _finalize(devectorize(solution))
    final_residual = np.linalg.norm(lv @ vectorize(rho))
    if final_residual > RESIDUAL_TOL * scale:
        raise DegenerateSteadyStateError(
            f"steady-state residual {final_residual:.3e} exceeds tolerance"
        )
    return validate_density_matrix(rho, context="steady state")


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
