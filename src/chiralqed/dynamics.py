"""Steady states of the vectorized master equation."""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .model import _issparse, undriven_part

if TYPE_CHECKING:  # for annotations; the full engine's code imports scipy itself
    import scipy.sparse

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8
SINGULAR = "non-unique steady state: the trace-constrained system is singular"
# The smallest gap of the undriven generator, in units of kappa, that
# certifies a point solved on its factors as unique (see steady_state).
GAP_MARGIN = 1e-3
RESIDUAL_TOL = 1e-10
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


@functools.lru_cache(maxsize=4)
def _constants(d2: int) -> tuple[np.ndarray, np.ndarray]:
    """The trace row and the right-hand sides (trace constraint, probe), read-only.

    The probe is fixed, not random: the fractional parts of k times the
    golden ratio and of k times sqrt(2), less 1/2, as its real and imaginary
    parts, an equidistributed sequence with no structure the generators share.
    """
    trace_row = vectorize(np.eye(math.isqrt(d2), dtype=complex))
    k = np.arange(1, d2 + 1)
    probe = (k * 0.6180339887498949 % 1.0 - 0.5) + 1j * (k * 0.41421356237309515 % 1.0 - 0.5)
    rhs = np.stack([np.eye(1, d2, dtype=complex)[0], probe], axis=-1)
    trace_row.flags.writeable = rhs.flags.writeable = False
    return trace_row, rhs


def _system(lv) -> scipy.sparse.csr_array:
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
    return csr


def _undriven_gap(system: scipy.sparse.csr_array) -> float:
    """The gap of the undriven generator L0, -Re of its nonzero eigenvalue
    nearest zero, in closed form from L0's constrained system.

    L0 conserves the excitation number on each side of rho and its jumps
    only lower it, so its eigenvalues are mu + conj(mu') over eigenvalues
    mu, mu' of X = -i H_eff, and the gap is min -Re mu over X's sectors of
    one or more excitations.  For i, k < D, L0[i, k] = X[i, k]: X's vacuum
    row and the jumps' vacuum-bra entries are zero.  Sector n (1..n_max) is
    the 2x2 block on |n, g> (index n) and |n - 1, e> (index n_max + n); the
    top sector |n_max, e> is 1x1.  Row 0, the trace row, is never read.
    """
    dim = math.isqrt(system.shape[0])
    n = np.arange(1, dim // 2)
    e = n + dim // 2 - 1  # |n - 1, e>
    stop = system.indptr[dim]
    rows = np.repeat(np.arange(dim), np.diff(system.indptr[:dim + 1]))
    cols = system.indices[:stop]
    keep = cols < dim
    x = np.zeros(dim * dim, dtype=complex)
    np.add.at(x, rows[keep] * dim + cols[keep], system.data[:stop][keep])
    x = x.reshape(dim, dim)
    a, b, c, d = x[n, n], x[n, e], x[e, n], x[e, e]
    # The eigenvalues are m +- s; numpy's principal root has Re s >= 0.
    m, s = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * c)
    return min(float(np.min(-m.real - s.real)), -x[-1, -1].real)


def _factorize(system: scipy.sparse.csr_array, l0: bool, certified: bool = False):
    """SuperLU's solve (MMD_AT_PLUS_A, symmetric mode) of a system; None if exactly singular.

    The undriven system L0 fills in almost nowhere, so its factors are built
    with single-column panels and no relaxed supernodes (panel_size=1,
    relax=1): at n_max = 16 that takes 0.7-0.9 ms where SuperLU's defaults
    take 1.2-1.5 ms.  A driven system's own factors fill in densely, where
    the supernodal defaults pay off (at n_max = 40, 0.44 s against 0.60 s
    with small panels).  Both are of a CSC copy: the CSR arrays read as CSC
    are the transpose, on whose columns partial pivoting gives L0 about 10%
    more fill and a driven system four times as much at n_max = 40.
    A certified system, an undriven one whose gap is at least GAP_MARGIN, is
    nonsingular, so its structural rank is not checked.
    """
    import scipy.sparse.linalg

    if not certified:
        from scipy.sparse.csgraph import structural_rank  # not on the dense path: 1.3 MiB

        # A structurally singular system is exactly singular, which SuperLU says
        # on some systems only after OpenBLAS printed errors to stdout.
        if structural_rank(system) < system.shape[0]:
            return None
    panels = {"panel_size": 1, "relax": 1} if l0 else {}
    try:
        return scipy.sparse.linalg.splu(
            system.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}, **panels
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
        size = math.sqrt(np.vdot(step, step).real) / math.sqrt(np.vdot(x, x).real)
        if not size <= CONTRACTION * last:
            return x, last <= FLOAT_FLOOR
        x = x + step
        last = size
        if size <= tol:
            return x, True


def _refine_wide(system, solve, b: np.ndarray, x: np.ndarray, l0: bool) -> np.ndarray:
    """Go on refining x with long-double residuals, on one np.clongdouble copy
    of the system; x is held in long double and rounded once.  The steps end
    once no entry of x above GRADE_FLOOR times the largest moves by more than
    WIDE_TOL of itself, or after MAX_WIDE_STEPS.  On the undriven factors each
    step settles about one more excitation level, so moves need not shrink;
    on the system's own, a step that fails to halve is noise and ends them.
    """
    import scipy.sparse

    wide = scipy.sparse.csr_array(
        (system.data.astype(np.clongdouble), system.indices, system.indptr), shape=system.shape
    )
    x_wide = x.astype(np.clongdouble)
    last = np.inf
    for _ in range(MAX_WIDE_STEPS):
        step = solve(_residual_wide(wide, b, x_wide).astype(complex))
        scale = np.maximum(np.abs(x), GRADE_FLOOR * np.abs(x).max())
        move = np.max(np.abs(step) / scale)
        if not (l0 or move <= CONTRACTION * last):
            break
        x_wide += step
        x = x_wide.astype(complex)
        if move <= WIDE_TOL:
            break
        last = move
    return x


def _solve_sparse(constrained, rhs: np.ndarray, undriven, certified: bool) -> np.ndarray:
    """Refined solutions of a constrained system for the columns of rhs, the
    trace constraint and the probe; NaN if the system is singular.  The
    factors are the undriven system's if it is given, SuperLU factorises it,
    and the steps of both columns contract; otherwise the system's own.  On
    a certified undriven system's factors the probe is not solved, and the
    result is the trace column alone."""
    b, probe = rhs.T
    for factors in [m for m in (undriven, constrained) if m is not None]:
        own = factors is constrained
        unprobed = certified and not own
        solve = _factorize(factors, l0=not own, certified=unprobed)
        if solve is None:
            continue
        solution, contracted = _refine(constrained, solve, b, WIDE_TOL)
        if contracted and not unprobed or own:
            candidate, contracted = _refine(constrained, solve, probe, FLOAT_FLOOR)
        if contracted or own:
            solution = _refine_wide(constrained, solve, b, solution, l0=not own)
            return np.stack([solution] if unprobed else [solution, candidate], axis=-1)
    return np.full(rhs.shape, np.nan, dtype=complex)


def _solve_dense(constrained: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One batched LAPACK solve of a (P, d2, d2) stack; NaN for the whole
    stack if any member is exactly singular."""
    try:
        return np.linalg.solve(constrained, rhs)
    except np.linalg.LinAlgError:
        return np.full((len(constrained), *rhs.shape), np.nan, dtype=complex)


def steady_state(lv) -> np.ndarray:
    """The unique stationary density matrix of a trace-preserving generator.

    lv is a scipy.sparse matrix, a dense (d2, d2) array, or a dense
    (P, d2, d2) stack whose P states come back as a (P, D, D) stack.  Row 0
    of each generator is replaced by the trace row.  A dense stack is solved
    with one batched LAPACK solve, a sparse system A x = b by the refinement
    x <- x + F^-1 (b - A x), where F is a SuperLU factorisation under a
    symmetric minimum-degree ordering.

    A sparse lv on build_liouvillian's pattern is taken to be a generator
    of the model, whose part L0 without drives and pair pump
    (model.undriven_part) factorises almost without fill.  F is L0's
    factors when L0 is structurally full rank (or certified, below),
    SuperLU factorises it, and every step is at most half the one before
    until below 2^-40 of x; otherwise, and for any other sparse lv, F
    factorises A.  The point alone decides.  L0's factors are built with
    small SuperLU panels and A's with SuperLU's supernodal defaults (see
    _factorize).  The step ratio estimates the spectral radius of
    F^-1 (A - F), which must be below 1: an estimate, not a proof of
    uniqueness.

    The trace column then gets residuals from scipy's CSR product in
    np.clongdouble, with x held in long double and rounded once, until no
    entry of x above 2^-20 of the largest moves by more than 2^-56 of itself
    (at most 12 steps); otherwise float64 residual noise would stay in the
    small entries that two-excitation populations read.

    A solve that is not finite, whose residual exceeds 1e-6 of
    max(||L||_F, 1), or whose ||x||_F exceeds 2 Re tr x (a density matrix
    has ||rho||_F <= tr rho), raises DegenerateSteadyStateError, with one
    message alone and in a stack.  That discards no unique state: trace
    preservation makes row 0 minus the sum of the other diagonal-position
    rows, so A x = 0 exactly when L x = 0 and tr x = 0.  A Lindblad
    generator's null space is spanned by density matrices (Baumgartner &
    Narnhofer, J. Phys. A 41, 395303 (2008)), so a one-dimensional one holds
    no traceless vector and a larger one always does: A is singular exactly
    when the steady state is not unique.  Uniqueness is also probed with one inverse-iteration step
    on the same factors: a second null vector (a deflated unit candidate d
    with ||L d|| below 1e-8 of || |L| |d| ||, L's componentwise scale on d)
    raises DegenerateSteadyStateError too.

    The probe runs on every path but one: a point whose trace column
    contracted on L0's factors, where L0's gap, read in closed form from
    its 2x2 excitation sectors (_undriven_gap), is at least GAP_MARGIN.
    Steps that contract by half estimate the spectral radius of
    F^-1 (A - F) at most 1/2, so A = F (I + F^-1 (A - F)) is nonsingular
    and, by the argument above, the steady state unique.  That estimate
    can be fooled only where F itself is nearly singular, which the gap
    rules out; such a certified L0 is nonsingular, and its structural rank
    is not checked.  The probe's column never reaches a state; only its
    steps, where they fail to halve, send an uncertified point on to A's
    own factors, whose state agrees to rounding (README gives the margin's
    evidence).

    A generator whose ||L||_F times D is beyond the square root of the
    float64 range raises OverflowError: the gates' norms would overflow.

    A sparse lv with unsorted or duplicate entries is summed on a copy, so
    the caller's arrays stay as they were given.
    """
    sparse = _issparse(lv)
    if sparse:
        import scipy.sparse

        lv = scipy.sparse.csr_array(lv, dtype=complex)
        if not lv.has_canonical_format:  # summed on a copy, not in the caller's arrays
            lv = lv.copy()
            lv.sum_duplicates()
    else:
        lv = np.asarray(lv, dtype=complex)
    d2 = lv.shape[-1]
    dim = math.isqrt(d2)
    if lv.ndim not in (2, 3) or lv.shape[-2] != d2 or dim * dim != d2:
        raise ValueError(f"expected a D^2 x D^2 superoperator, got {lv.shape}")

    trace_row, rhs = _constants(d2)
    with np.errstate(over="ignore"):  # an overflow is refused below
        if sparse:
            members, system, undriven = [lv], _system(lv), undriven_part(lv)
            preconditioner = None if undriven is None else _system(undriven)
            certified = preconditioner is not None and _undriven_gap(preconditioner) >= GAP_MARGIN
            both = _solve_sparse(system, rhs, preconditioner, certified)[np.newaxis]
            scale = np.array([np.linalg.norm(lv.data)])  # ||L||_F: lv is canonical
            apply = lambda vecs: (lv @ vecs.T).T
        else:
            members = lv.reshape(-1, d2, d2)
            constrained = members.copy()
            constrained[:, 0, :] = trace_row
            both = _solve_dense(constrained, rhs)
            # ||L||_F as np.linalg.norm computes it, with the solved system's
            # memory for the (P, d2, d2) products in place of two new arrays.
            squares = np.multiply(np.conjugate(members, out=constrained), members, out=constrained)
            scale = np.sqrt(np.add.reduce(squares.real, axis=(1, 2)))
            apply = lambda vecs: (members @ vecs[..., np.newaxis])[..., 0]
    # The gates below compare norms of L applied to vectors of at most D^2
    # entries of order 1, which reach (D ||L||_F)^2 as sums of squares.
    if not np.all(dim * scale <= math.sqrt(np.finfo(float).max)):
        raise OverflowError(
            f"||L||_F = {np.max(scale):.3e} overflows the float64 norms of a {d2}-row generator"
        )
    solution = both[..., 0]

    norms = np.maximum(np.linalg.norm(solution, axis=-1), 1e-300)
    residual = np.linalg.norm(apply(solution), axis=-1) / norms
    if not np.all(np.isfinite(solution)) or np.any(residual > 1e-6 * np.maximum(scale, 1.0)):
        raise DegenerateSteadyStateError(SINGULAR)

    if both.shape[-1] > 1:
        # A near-degenerate generator amplifies a second null direction
        # enormously in the probe's solve: a deflated candidate with tiny
        # residual betrays it.
        candidate = both[..., 1]
        primary = solution / np.linalg.norm(solution, axis=-1, keepdims=True)
        overlap = np.sum(primary.conj() * candidate, axis=-1, keepdims=True)
        deflated = candidate - overlap * primary
        deflated_norm = np.linalg.norm(deflated, axis=-1)
        deflated /= np.maximum(deflated_norm, 1e-300)[:, np.newaxis]
        probed = deflated_norm > 1e-9 * np.linalg.norm(candidate, axis=-1)
        deflated_residual = np.linalg.norm(apply(deflated), axis=-1)
        # The residual is measured against L's componentwise scale on the unit
        # candidate, || |L| |d| ||, which unlike ||L||_F does not grow with the
        # cutoff.  It is at most ||L||_F, so only members below that bound need it.
        for k in np.flatnonzero(probed & (deflated_residual < DEGENERACY_TOL * scale)):
            margin = np.linalg.norm(abs(members[k]) @ np.abs(deflated[k]))
            if deflated_residual[k] < DEGENERACY_TOL * margin:
                raise DegenerateSteadyStateError(
                    "non-unique steady state: found a second null vector"
                )

    # A density matrix has ||rho||_F <= tr rho.  A solve far from that is no
    # state, though L takes it near zero, and _finalize would divide by its trace.
    if np.any(norms > 2.0 * solution[..., ::dim + 1].sum(axis=-1).real):
        raise DegenerateSteadyStateError(SINGULAR)
    rho = _finalize(solution.reshape(-1, dim, dim).swapaxes(1, 2))
    final_residual = np.linalg.norm(apply(rho.swapaxes(1, 2).reshape(-1, d2)), axis=-1)
    too_large = final_residual > RESIDUAL_TOL * scale
    if np.any(too_large):
        worst = final_residual[too_large].max()
        raise DegenerateSteadyStateError(f"steady-state residual {worst:.3e} exceeds tolerance")
    rho = validate_density_matrix(rho, context="steady state")
    return rho if lv.ndim == 3 else rho[0]

