"""Steady states of the vectorized master equation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fock_algebra import FockCutoff
from .model import _issparse, _terms, pattern_cutoff, undriven_part

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
# Refinement of a sparse solve (see _refine, _refine_wide and
# _refine_refreshed): float64 steps must shrink by CONTRACTION until below
# FLOAT_FLOOR of x; the steps past it end once entries above GRADE_FLOOR of
# the largest move by WIDE_TOL or less.  MAX_WIDE_STEPS bounds those steps
# plus their long-double residuals, each of which costs one to 1.4 float64
# steps (a solve and a float64 product) at n_max = 8 to 40: 24 is the cost
# of 12 steps that each take a long-double residual.
CONTRACTION = 0.5
FLOAT_FLOOR = 2.0**-40
WIDE_TOL = 2.0**-56
GRADE_FLOOR = 2.0**-20
MAX_WIDE_STEPS = 24


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


@dataclass(frozen=True)
class _Plan:
    """A cutoff's certified-L0 layout, in excitation order (see _plan).

    `order` holds the vec(rho) index of each unknown in that order, and
    `rank` the inverse.  `system` and `undriven` are (gather, indices,
    indptr) of A's constrained CSR and L0's constrained CSC there, where
    gather indexes a generator's data with a trailing 1.0 for the trace row.
    `x_positions` are the data positions of X = L0[:D, :D], and `x_index`
    their flat indices in X.
    """

    order: np.ndarray
    rank: np.ndarray
    system: tuple[np.ndarray, np.ndarray, np.ndarray]
    undriven: tuple[np.ndarray, np.ndarray, np.ndarray]
    x_positions: np.ndarray
    x_index: np.ndarray


def _compressed(gather: np.ndarray, major: np.ndarray, minor: np.ndarray, size: int):
    """(gather, minor, indptr) of the entries sorted by major, then minor:
    the arrays of a CSR matrix (major = rows) or a CSC one (major = columns)."""
    index = np.int32
    order = np.lexsort((minor, major))
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(np.bincount(major, minlength=size), out=indptr[1:])
    return gather[order], minor[order].astype(index), indptr


@functools.lru_cache(maxsize=4)
def _plan(cutoff: FockCutoff) -> _Plan:
    """The excitation order of a cutoff's D^2 unknowns, and the gather maps
    of A's and L0's constrained systems in it; its arrays are read-only.

    The unknown |p><q| has m excitations in p and m' in q.  The order is by
    decreasing m + m', then m, then m'.  L0 keeps m and m' but for its
    jumps, which lower both, so its constrained system is block
    lower-triangular there, in sectors (m, m') of at most four unknowns,
    with the trace row (in place of the vacuum's, m = m' = 0) last.
    """
    terms = _terms(cutoff)
    dim, size = cutoff.dim, cutoff.dim**2
    # |g, n> holds n excitations and |e, n> n + 1; index p = atom * fock_dim + n.
    excitations = np.arange(dim) % cutoff.fock_dim + np.arange(dim) // cutoff.fock_dim
    ket, bra = np.tile(excitations, dim), np.repeat(excitations, dim)
    order = np.lexsort((-bra, -ket, -(ket + bra)))
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size)
    rows = np.repeat(np.arange(size), np.diff(terms.indptr))
    # Every stored entry off row 0, then the trace row's D ones.
    kept = np.flatnonzero(rows > 0)
    gather = np.concatenate([kept, np.full(dim, terms.indices.size)])
    row = rank[np.concatenate([rows[kept], np.zeros(dim, dtype=int)])]
    col = rank[np.concatenate([terms.indices[kept], np.arange(0, size, dim + 1)])]
    undriven = ~np.concatenate([terms.driven[kept], np.zeros(dim, dtype=bool)])
    x_positions = np.flatnonzero((rows < dim) & (terms.indices < dim) & ~terms.driven)
    plan = _Plan(
        order,
        rank,
        _compressed(gather, row, col, size),
        _compressed(gather[undriven], col[undriven], row[undriven], size),
        x_positions,
        rows[x_positions] * dim + terms.indices[x_positions],
    )
    for array in (plan.order, plan.rank, *plan.system, *plan.undriven, x_positions, plan.x_index):
        array.flags.writeable = False
    return plan


def _undriven_gap(plan: _Plan, data: np.ndarray) -> float:
    """The gap of the undriven generator L0, -Re of its nonzero eigenvalue
    nearest zero, in closed form from a generator's data on plan's cutoff.

    L0 conserves the excitation number on each side of rho and its jumps
    only lower it, so its eigenvalues are mu + conj(mu') over eigenvalues
    mu, mu' of X = -i H_eff, and the gap is min -Re mu over X's sectors of
    one or more excitations.  For i, k < D, L0[i, k] = X[i, k]: the jumps'
    vacuum-bra entries are zero.  Sector n (1..n_max) is the 2x2 block on
    |n, g> (index n) and |n - 1, e> (index n_max + n); the top sector
    |n_max, e> is 1x1.
    """
    dim = math.isqrt(plan.order.size)
    n = np.arange(1, dim // 2)
    e = n + dim // 2 - 1  # |n - 1, e>
    x = np.zeros(dim * dim, dtype=complex)
    x[plan.x_index] = data[plan.x_positions]
    x = x.reshape(dim, dim)
    a, b, c, d = x[n, n], x[n, e], x[e, n], x[e, e]
    # The eigenvalues are m +- s; numpy's principal root has Re s >= 0.
    m, s = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * c)
    return min(float(np.min(-m.real - s.real)), -x[-1, -1].real)


def _factorize(system, l0: bool, certified: bool = False):
    """SuperLU's solve (symmetric mode) of a system; None if exactly singular.

    The undriven system L0 fills in almost nowhere, so its factors are built
    with single-column panels and no relaxed supernodes (panel_size=1,
    relax=1): at n_max = 16 that takes 0.7-0.9 ms where SuperLU's defaults
    take 1.2-1.5 ms.  A driven system's own factors fill in densely, where
    the supernodal defaults pay off (at n_max = 40, 0.44 s against 0.60 s
    with small panels).

    A certified system is a CSC L0 in its cutoff's excitation order (see
    _plan), nonsingular by its gap of at least GAP_MARGIN.  It is block
    lower-triangular there, so SuperLU keeps that order (NATURAL), and its
    structural rank is not checked.  Any other system is CSR, checked for
    structural rank and factorised on a CSC copy under a symmetric
    minimum-degree ordering (MMD_AT_PLUS_A): the CSR arrays read as CSC are
    the transpose, on whose columns partial pivoting gives L0 about 10% more
    fill and a driven system four times as much at n_max = 40.
    """
    import scipy.sparse.linalg

    if not certified:
        from scipy.sparse.csgraph import structural_rank  # not on the dense path: 1.3 MiB

        # A structurally singular system is exactly singular, which SuperLU says
        # on some systems only after OpenBLAS printed errors to stdout.
        if structural_rank(system) < system.shape[0]:
            return None
        system = system.tocsc()
    panels = {"panel_size": 1, "relax": 1} if l0 else {}
    try:
        return scipy.sparse.linalg.splu(
            system,
            permc_spec="NATURAL" if certified else "MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
            **panels,
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
    """Go on refining x with a long-double residual at every step, on one
    np.clongdouble copy of the system; x is held in long double and rounded
    once.  This is the refinement of the probed points (a certified one's is
    _refine_refreshed).  The steps end once no entry of x above GRADE_FLOOR
    times the largest moves by more than WIDE_TOL of itself, or once their
    steps and residuals reach MAX_WIDE_STEPS.  On the undriven factors each
    step settles about one more excitation level, so moves need not shrink;
    on the system's own, a step that fails to halve is noise and ends them.
    """
    import scipy.sparse

    wide = scipy.sparse.csr_array(
        (system.data.astype(np.clongdouble), system.indices, system.indptr), shape=system.shape
    )
    x_wide = x.astype(np.clongdouble)
    last = np.inf
    for _ in range(MAX_WIDE_STEPS // 2):  # each a residual and a step
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


def _refine_refreshed(system, solve, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Go on refining x past FLOAT_FLOOR in cycles, each started by a
    long-double residual b - A x (a refresh) on one np.clongdouble copy of
    the system and continued on float64 residuals updated as r <- r - A s,
    which do not cancel as b - A x does (Carson & Higham, SIAM J. Sci.
    Comput. 40, A817 (2018)).  x is held in long double.  A cycle's steps
    are summed in float64 and added to x once, after the first step that
    moves no entry of x above GRADE_FLOOR times the largest by more than
    WIDE_TOL of itself.  The refinement ends when that step is a cycle's
    first, whose fresh residual confirms x; at a cycle's first step that
    moves more, and by more than half the last cycle's first, which is the
    refresh's rounding noise and is dropped; or once steps and refreshes
    reach MAX_WIDE_STEPS.
    """
    import scipy.sparse

    wide = scipy.sparse.csr_array(
        (system.data.astype(np.clongdouble), system.indices, system.indptr), shape=system.shape
    )
    x_wide = x.astype(np.clongdouble)
    budget, last = MAX_WIDE_STEPS, np.inf
    while True:
        residual = _residual_wide(wide, b, x_wide).astype(complex)
        scale = np.maximum(np.abs(x), GRADE_FLOOR * np.abs(x).max())
        steps, first, budget = np.zeros_like(x), True, budget - 1
        while budget > 0:
            step = solve(residual)
            budget -= 1
            move = np.max(np.abs(step) / scale)
            if first:
                if move > max(WIDE_TOL, CONTRACTION * last):
                    return x  # the refresh's rounding noise
                last = move
            steps += step
            if move <= WIDE_TOL:
                break
            residual -= system @ step
            first = False
        x_wide += steps
        x = x_wide.astype(complex)
        if first or budget <= 0:
            return x


def _solve_certified(plan: _Plan, data: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The trace column's refined solution on a certified L0's factors, in
    plan's excitation order; None if SuperLU finds L0 singular or the
    float64 steps fail to halve before FLOAT_FLOOR."""
    import scipy.sparse

    values = np.append(data, 1.0)  # the trace row's ones
    size = plan.order.size
    gather, indices, indptr = plan.undriven
    entries = values[gather]
    stored = entries != 0
    # Explicit zeros are eliminated on new arrays: the plan's are shared.
    counts = np.zeros(entries.size + 1, dtype=indptr.dtype)
    np.cumsum(stored, out=counts[1:])
    undriven = scipy.sparse.csc_array(
        (entries[stored], indices[stored], counts[indptr]), shape=(size, size)
    )
    solve = _factorize(undriven, l0=True, certified=True)
    if solve is None:
        return None
    gather, indices, indptr = plan.system
    system = scipy.sparse.csr_array((values[gather], indices, indptr), shape=(size, size))
    rhs = b[plan.order]
    x, contracted = _refine(system, solve, rhs, FLOAT_FLOOR)
    if not contracted:
        return None
    return _refine_refreshed(system, solve, rhs, x)[plan.rank]


def _solve_sparse(constrained, rhs: np.ndarray, undriven) -> np.ndarray:
    """Refined solutions of a constrained system for the columns of rhs, the
    trace constraint and the probe; NaN if the system is singular.  The
    factors are the undriven system's if it is given, SuperLU factorises it,
    and the steps of both columns contract; otherwise the system's own."""
    b, probe = rhs.T
    for factors in [m for m in (undriven, constrained) if m is not None]:
        own = factors is constrained
        solve = _factorize(factors, l0=not own)
        if solve is None:
            continue
        solution, contracted = _refine(constrained, solve, b, WIDE_TOL)
        if contracted or own:
            candidate, contracted = _refine(constrained, solve, probe, FLOAT_FLOOR)
        if contracted or own:
            solution = _refine_wide(constrained, solve, b, solution, l0=not own)
            return np.stack([solution, candidate], axis=-1)
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
    x <- x + F^-1 (b - A x), where F is a SuperLU factorisation.

    A sparse lv on build_liouvillian's pattern (model.pattern_cutoff) is
    taken to be a generator of the model, whose part L0 without drives and
    pair pump factorises almost without fill.  F is L0's factors when L0 is
    structurally full rank (or certified, below), SuperLU factorises it, and
    every step is at most half the one before until below 2^-40 of x;
    otherwise, and for any other sparse lv, F factorises A under a symmetric
    minimum-degree ordering.  The point alone decides.  L0's factors are
    built with small SuperLU panels and A's with SuperLU's supernodal
    defaults (see _factorize).  The step ratio estimates the spectral radius
    of F^-1 (A - F), which must be below 1: an estimate, not a proof of
    uniqueness.

    A certified point is solved in its cutoff's excitation order (_plan),
    where L0 is block lower-triangular, so SuperLU keeps that order.  Its
    systems are gathered from lv's data by maps built once per cutoff.
    Past 2^-40, its trace column is refined on float64 residuals updated as
    r <- r - A s and refreshed in long double, two or three times a point
    (_refine_refreshed).  Any other point's trace column takes a long-double
    residual, from scipy's CSR product in np.clongdouble, at every step
    (_refine_wide).  Either way x is held in long double and rounded once,
    and the steps end once no entry of x above 2^-20 of the largest moves by
    more than 2^-56 of itself, or at a budget of MAX_WIDE_STEPS steps and
    long-double residuals; otherwise float64 residual noise would stay in
    the small entries that two-excitation populations read.

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

    The probe runs on every path but one: a point where L0's gap, read in
    closed form from its 2x2 excitation sectors (_undriven_gap), is at
    least GAP_MARGIN, and whose trace column contracts on L0's factors.
    Steps that contract by half estimate the spectral radius of
    F^-1 (A - F) at most 1/2, so A = F (I + F^-1 (A - F)) is nonsingular
    and, by the argument above, the steady state unique.  That estimate
    can be fooled only where F itself is nearly singular, which the gap
    rules out; such a certified L0 is nonsingular, and its structural rank
    is not checked.  A certified point whose steps fail to halve goes on to
    A's own factors, probe included.  The probe's column never reaches a
    state; only its steps, where they fail to halve, send an uncertified
    point on to A's own factors, whose state agrees to rounding (README
    gives the margin's evidence).

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
            members, cutoff = [lv], pattern_cutoff(lv)
            plan = None if cutoff is None else _plan(cutoff)
            certified = plan is not None and _undriven_gap(plan, lv.data) >= GAP_MARGIN
            solution = _solve_certified(plan, lv.data, rhs[:, 0]) if certified else None
            if solution is None:
                undriven = None if certified or plan is None else _system(undriven_part(lv))
                both = _solve_sparse(_system(lv), rhs, undriven)[np.newaxis]
            else:
                both = solution[np.newaxis, :, np.newaxis]
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

