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
# Refinement of a sparse solve (see _refine and _refine_wide): float64 steps
# must shrink by CONTRACTION until they are below FLOAT_FLOOR of x;
# long-double steps end once entries above GRADE_FLOOR of the largest move
# by at most WIDE_TOL of themselves.
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


def _factorize(system):
    """SuperLU's solve for a CSC system, or None if the system is exactly singular.

    The ordering is SuperLU's minimum degree on the pattern of A + A^T in
    symmetric mode (MMD_AT_PLUS_A), applied to rows and columns alike with
    the diagonal as the preferred pivot; diag_pivot_thresh stays at its
    default of 1.0, so pivoting stays partial.
    """
    # Imported here so that the dense five-state path does not load it
    # (1.3 MiB of resident memory).
    from scipy.sparse.csgraph import structural_rank

    # A structurally singular system (no full matching of rows to nonzero
    # columns) is exactly singular.  SuperLU reports that too, but on some
    # such inputs only after OpenBLAS has printed illegal-argument messages
    # to stdout.
    if structural_rank(system) < system.shape[0]:
        return None
    try:
        return scipy.sparse.linalg.splu(
            system, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
        ).solve
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _residual_wide(system, data, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x in long double for a CSR system whose values are data."""
    products = x[system.indices]
    products *= data
    # reduceat over the nonempty rows only: an empty row would take the next row's first product
    rows = np.flatnonzero(np.diff(system.indptr))
    ax = np.zeros(system.shape[0], dtype=np.clongdouble)
    ax[rows] = np.add.reduceat(products, system.indptr[rows])
    return b - ax


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
    """Go on refining x with long-double residuals; x is held in long double
    and rounded once at the end.

    The steps end once no entry of x above GRADE_FLOOR times the largest
    moves by more than WIDE_TOL of itself, or after MAX_WIDE_STEPS.  On the
    undriven factors each step settles about one more excitation level of a
    weakly driven state, so the moves need not shrink from one step to the
    next.  On the system's own factors the refinement converges in about one
    step, so a step that fails to halve the one before is rounding noise; it
    is dropped and ends the refinement.
    """
    wide, data = x.astype(np.clongdouble), system.data.astype(np.clongdouble)
    last = np.inf
    for _ in range(MAX_WIDE_STEPS):
        step = solve(_residual_wide(system, data, b, wide).astype(complex))
        scale = np.maximum(np.abs(x), GRADE_FLOOR * np.abs(x).max())
        move = np.max(np.abs(step) / scale)
        if not (undriven or move <= CONTRACTION * last):
            break
        wide += step
        x = wide.astype(complex)
        if move <= WIDE_TOL:
            break
        last = move
    return x


def _solve_sparse(constrained, rhs: np.ndarray, undriven=None) -> np.ndarray:
    """Refined SuperLU solutions of the sparse system for the two columns of
    rhs, the trace constraint and the probe; NaN if the system is singular.

    The columns are refined on the factors of the constrained undriven
    generator when it is given, SuperLU factorises it, and the steps of both
    columns contract; otherwise on the factors of the system itself, where
    the refinement converges in a step or two and its result is kept
    whether or not the steps contract.  The trace column then gets its
    long-double steps.
    """
    b, probe = rhs.T
    constrained.eliminate_zeros()
    if undriven is not None:
        undriven.eliminate_zeros()
        solve = _factorize(undriven.tocsc())
        if solve is not None:
            solution, contracted = _refine(constrained, solve, b, WIDE_TOL)
            if contracted:
                candidate, contracted = _refine(constrained, solve, probe, FLOAT_FLOOR)
            if contracted:
                solution = _refine_wide(constrained, solve, b, solution, undriven=True)
                return np.stack([solution, candidate], axis=-1)
    solve = _factorize(constrained.tocsc())
    if solve is None:
        return np.full(rhs.shape, np.nan, dtype=complex)
    solution, _ = _refine(constrained, solve, b, WIDE_TOL)
    candidate, _ = _refine(constrained, solve, probe, FLOAT_FLOOR)
    solution = _refine_wide(constrained, solve, b, solution, undriven=False)
    return np.stack([solution, candidate], axis=-1)


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
    (P, d2, d2) stack whose P states come back as a (P, D, D) stack.  One
    row of each generator is replaced by the trace constraint.  A dense
    stack is solved with one batched LAPACK solve.  A sparse system A x = b
    is solved by the refinement x <- x + F^-1 (b - A x), where F is a
    SuperLU factorisation under a symmetric minimum-degree ordering; the
    generator is never densified except by the degeneracy diagnosis.

    undriven, taken only with a sparse lv, is the same point's generator L0
    without its drives and pair pump (model.build_undriven_liouvillian).
    L0 is block-triangular in the excitation number, so its trace-constrained
    form factorises almost without fill.  F is its factors when it is
    structurally full rank, SuperLU factorises it, and every refinement step
    is at most half the one before until the steps fall below 2^-40 of x.
    Otherwise F is the factorisation of A itself, on which the refinement
    converges in a step or two.  Which factors run is decided by the point
    alone.  The ratio of successive steps estimates the spectral radius of
    F^-1 (A - F), which must be below 1 for the refinement to converge; it
    is an estimate, not a proof that the steady state is unique, and every
    check below runs on either path.

    Once the float64 steps stop shrinking, the residuals of the trace column
    are taken in long double, with x held in long double and rounded once at
    the end.  They go on until no entry of x above 2^-20 of the largest
    moves by more than 2^-56 of itself, at most 12 steps; on L0's factors
    each step settles about one more excitation level of a weakly driven
    state.  Without them the float64 noise of the residual would stay in
    the small entries that the two-excitation populations read.

    Uniqueness is then probed with one inverse-iteration step, a second
    right-hand side refined on the same factors: a second independent null
    vector (tolerance 1e-8 relative to the generator's scale) raises
    DegenerateSteadyStateError, as does an exactly singular system whose
    singular-value diagnosis, run member by member, finds more than one null
    direction.
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
    if undriven is not None and (not sparse or undriven.shape != lv.shape):
        raise ValueError("undriven is taken only with a sparse lv of the same shape")
    if sparse:
        members = [lv]
        trace_csr = scipy.sparse.csr_array(trace_row[np.newaxis, :])

        def constrain(m):
            m = scipy.sparse.csr_array(m, dtype=complex)
            return scipy.sparse.vstack([trace_csr, m[1:]], format="csr")

        preconditioner = None if undriven is None else constrain(undriven)
        both = _solve_sparse(constrain(lv), rhs, preconditioner)[np.newaxis]
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
