import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from chiralqed import dynamics
from chiralqed import truncated_oracle as trunc
from chiralqed.cli import FIGURE_PRESETS, _changes
from chiralqed.dynamics import (
    DegenerateSteadyStateError,
    PositivityError,
    steady_state,
    validate_density_matrix,
    vectorize,
)
from chiralqed.fock_algebra import FockCutoff, annihilation
from chiralqed.model import SystemParams, build_liouvillian, lindblad
from chiralqed.observables import g2_zero

from conftest import (
    build_undriven_liouvillian,
    devectorize,
    evolve,
    random_density,
    stack_params,
    subprocess_env,
)

CUTOFF = FockCutoff(3)

DRIVEN = SystemParams(
    gamma=0.8, chi=0.2, delta_c=0.3, delta_a=-0.1,
    omega_c=0.06, omega_a=0.04, e_mag=2e-3, phi_d=0.5,
)


def test_vectorize_round_trip(rng):
    rho = random_density(rng, 5)
    np.testing.assert_array_equal(devectorize(vectorize(rho)), rho)


def test_vectorize_column_stacking(rng):
    """vec(A rho B) = (B^T kron A) vec(rho), the convention everything rests on."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = random_density(rng, 4)
    lhs = vectorize(a @ rho @ b)
    rhs = np.kron(b.T, a) @ vectorize(rho)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_vectorize_shape_errors():
    with pytest.raises(ValueError):
        vectorize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        devectorize(np.ones(5))
    with pytest.raises(ValueError):
        devectorize(np.ones((2, 2)))


def test_validate_density_matrix():
    good = np.diag([0.6, 0.4]).astype(complex)
    out = validate_density_matrix(good)
    np.testing.assert_allclose(out, good, atol=1e-15)

    with pytest.raises(ValueError, match="Hermiticity"):
        validate_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.diag([0.9, 0.4]).astype(complex))
    with pytest.raises(PositivityError):
        validate_density_matrix(np.diag([1.2, -0.2]).astype(complex))


def test_steady_state_shape_check():
    with pytest.raises(ValueError):
        steady_state(np.zeros((5, 5), dtype=complex))


def test_steady_state_properties():
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho = steady_state(lv)
    assert rho.shape == (CUTOFF.dim, CUTOFF.dim)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > -1e-12
    residual = np.linalg.norm(lv @ vectorize(rho))
    assert residual < 1e-10 * np.linalg.norm(lv.toarray())


def _own_factors(lv):
    """steady_state(lv) on A's own factors, as for a sparse lv off the
    model's pattern: no undriven part is found."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "undriven_part", lambda lv: None)
        return steady_state(lv)


def test_steady_state_detects_degeneracy():
    # with the atom decoupled from decay, |g,0> and |e,0> are both stationary
    lv = build_liouvillian(SystemParams(gamma=0.0, chi=0.0), CUTOFF)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(lv)
    # a driven atom that never decays: its constrained system is structurally
    # nonsingular and solves, so only the uniqueness probe can refuse it
    undamped = SystemParams(gamma=0.0, omega_c=0.05, omega_a=0.05, delta_a=0.3, e_mag=0.01)
    cutoff = FockCutoff(8)
    lv = build_liouvillian(undamped, cutoff)
    for solve, form in ((_own_factors, lv), (steady_state, lv), (steady_state, lv.toarray())):
        with pytest.raises(DegenerateSteadyStateError, match="found a second null vector"):
            solve(form)


@pytest.mark.parametrize("chi", [0.0, 1.0])
def test_sparse_and_dense_steady_states_agree(chi):
    lv = build_liouvillian(replace(DRIVEN, chi=chi), FockCutoff(8))
    np.testing.assert_allclose(
        steady_state(lv), steady_state(lv.toarray()), rtol=0, atol=1e-12
    )


# The one message of a trace-constrained system that is singular, or whose
# solve is not finite or fails the residual check.
SINGULAR = "non-unique steady state: the trace-constrained system is singular"


def _refusal(lv) -> str:
    with pytest.raises(DegenerateSteadyStateError) as refused:
        steady_state(lv)
    return str(refused.value)


def test_degeneracy_detected_on_sparse_and_dense_paths():
    # structurally singular once the trace row is in: SuperLU is never called
    lv = build_liouvillian(SystemParams(gamma=0.0, chi=0.0), FockCutoff(8))
    for form in (lv, lv.toarray()):
        assert _refusal(form) == SINGULAR


def test_exactly_singular_factor_raises():
    # structurally nonsingular, so SuperLU runs and reports an exact zero pivot
    lv = np.array(
        [[0, 0, 0, 0], [0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1]], dtype=complex
    )
    for form in (scipy.sparse.csr_array(lv), lv):
        assert _refusal(form) == SINGULAR


def test_singular_generators_of_any_size_raise_one_message():
    # no branch depends on the size: n_max = 25 gives a 2704 x 2704 generator
    for n_max in (8, 25):
        lv = build_liouvillian(SystemParams(gamma=0.0, chi=0.0), FockCutoff(n_max))
        assert _refusal(lv) == SINGULAR


def test_generators_refused_as_singular_have_several_steady_states():
    # The SVD is the reference for the refusal: each physical generator the
    # suite refuses as singular has a null space of dimension 2 or more, so
    # no refusal discards a unique steady state.
    full = build_liouvillian(SystemParams(gamma=0.0, chi=0.0), FockCutoff(8))
    stuck = replace(trunc.from_system(SystemParams()), gamma_chi=0.0)
    uncoupled = trunc.from_system(SystemParams(gamma=1.0, chi=1.0))
    for lv in (full, full.toarray(), *map(trunc.truncated_liouvillian, (stuck, uncoupled))):
        assert _refusal(lv) == SINGULAR
        dense = lv.toarray() if scipy.sparse.issparse(lv) else lv
        singular_values = np.linalg.svd(dense, compute_uv=False)
        assert np.sum(singular_values < 1e-8 * singular_values[0]) >= 2


HISTORY_CUTOFF = FockCutoff(6)


def _solve(params, cutoff, with_undriven=True):
    lv = build_liouvillian(params, cutoff)
    return steady_state(lv) if with_undriven else _own_factors(lv)


# Points whose undriven factors cannot be used: at chi = 1, x_phase = 0 and
# zero detuning SuperLU finds the constrained L0 exactly singular (undriven,
# the dark polariton does not decay); at gamma = chi = 0 it is structurally
# singular (rank 321 of 324 at n_max = 8); at omega = 1 the refinement steps
# grow instead of contracting.
L0_SINGULAR = SystemParams(chi=1.0, omega_c=0.05, omega_a=0.05, e_mag=0.01)
L0_STRUCTURALLY_SINGULAR = SystemParams(gamma=0.0, omega_c=0.05, omega_a=0.05, e_mag=0.01)
STRONG_DRIVE = SystemParams(chi=0.5, x_phase=0.7, omega_c=1.0, omega_a=1.0)


# The supernode settings SuperLU gets: small panels for the undriven system,
# SuperLU's defaults (None) for a driven system's own factors.
SMALL_PANELS = {"panel_size": 1, "relax": 1}
DEFAULT_PANELS = {"panel_size": None, "relax": None}


@pytest.fixture
def factorized(monkeypatch):
    """(stored entries, factorised?, SuperLU's panel settings) of each system
    handed to SuperLU, in order; the settings are None if SuperLU never ran."""
    calls, settings = [], []
    factorize, splu = dynamics._factorize, scipy.sparse.linalg.splu

    def splu_spy(matrix, **options):
        settings.append({key: options.get(key) for key in DEFAULT_PANELS})
        return splu(matrix, **options)

    def spy(system, **options):
        settings.clear()
        solve = factorize(system, **options)
        calls.append((system.nnz, solve is not None, settings[0] if settings else None))
        return solve

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu_spy)
    monkeypatch.setattr(dynamics, "_factorize", spy)
    return calls


def _outcome(solve):
    try:
        return solve().tobytes()
    except DegenerateSteadyStateError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "params, l0_factorized, l0_panels",
    [
        (L0_SINGULAR, False, SMALL_PANELS),
        (L0_STRUCTURALLY_SINGULAR, False, None),
        (STRONG_DRIVE, True, SMALL_PANELS),
    ],
    ids=["l0-exactly-singular", "l0-structurally-singular", "steps-grow"],
)
def test_unusable_undriven_factors_fall_back_to_the_driven_ones(
    factorized, params, l0_factorized, l0_panels
):
    cutoff = FockCutoff(8)
    with_l0 = _outcome(lambda: _solve(params, cutoff))
    (l0, l0_done, l0_settings), (driven, driven_done, driven_settings) = factorized
    assert l0_done == l0_factorized and driven_done
    assert l0_settings == l0_panels and driven_settings == DEFAULT_PANELS
    # the driven factors ran last, and gave what they give without L0
    assert driven > l0
    assert with_l0 == _outcome(lambda: _solve(params, cutoff, with_undriven=False))


def _figure_points():
    """Every 10th grid point of each figure4-figure7 curve."""
    for name in ("figure4", "figure5", "figure6", "figure7"):
        preset = FIGURE_PRESETS[name]
        for curve in preset.curves:
            for value in preset.sweep.grid()[::10].tolist():
                changes, _ = _changes(curve.system, preset.sweep.parameter, value)
                yield replace(curve.system, **changes)


def _point_n16_draws(count):
    """Operating points from the ranges of the point-n16 benchmark inputs."""
    rng = np.random.default_rng(11)
    for k in range(count):
        omega, chi = rng.uniform(0.01, 0.1), float(k % 2)
        delta_s = rng.uniform(-1.0, 1.0)
        yield SystemParams(
            gamma=rng.uniform(0.25, 4.0), chi=chi, delta_c=delta_s + chi, delta_a=delta_s - chi,
            omega_c=omega, omega_a=omega, e_mag=4.0 * omega**2,
            phi_d=rng.uniform(-math.pi, math.pi),
        )


@pytest.mark.parametrize(
    "points, n_max",
    [(list(_figure_points()), 8), (list(_point_n16_draws(10)), 12)],
    ids=["figures-cutoff8", "point-n16-draws-cutoff12"],
)
def test_undriven_and_driven_factors_give_the_same_state(factorized, points, n_max):
    cutoff = FockCutoff(n_max)
    for params in points:
        factorized.clear()
        rho = _solve(params, cutoff)
        assert len(factorized) == 1, params  # only L0 was factorised
        direct = _solve(params, cutoff, with_undriven=False)
        assert np.abs(rho - direct).max() <= 1e-15 * np.abs(direct).max(), params


def _l0_gap(params, cutoff):
    return dynamics._undriven_gap(dynamics._system(build_undriven_liouvillian(params, cutoff)))


def test_undriven_gap_matches_dense_eigenvalues():
    rng = np.random.default_rng(26)
    for n_max in (3, 4, 5, 6):
        for _ in range(4):
            params = SystemParams(
                gamma=rng.uniform(0.1, 3.0), chi=rng.uniform(0.05, 0.95),
                delta_c=rng.uniform(-2.0, 2.0), delta_a=rng.uniform(-2.0, 2.0),
                x_phase=rng.uniform(-3.0, 3.0), omega_c=0.1, e_mag=0.01,
            )
            cutoff = FockCutoff(n_max)
            dense = build_undriven_liouvillian(params, cutoff).toarray()
            rates = np.sort(-np.linalg.eigvals(dense).real)
            assert abs(rates[0]) < 1e-12  # the vacuum
            assert abs(_l0_gap(params, cutoff) - rates[1]) < 1e-10, params
    # an undamped atom's sectors do not decay; nor, undriven, does the dark
    # polariton at chi = 1, x_phase = 0 and equal detunings
    assert _l0_gap(SystemParams(gamma=0.0, chi=0.4, delta_a=0.3), FockCutoff(6)) == 0.0
    dark = SystemParams(gamma=1.7, chi=1.0, delta_c=0.4, delta_a=0.4)
    assert abs(_l0_gap(dark, FockCutoff(6))) < 1e-12


def _stress_draws(count):
    """Points in and around the degenerate corners: gamma zero or tiny, chi
    0, 1/2 or 1, equal or unequal detunings, x_phase zero or not, drives
    from 1e-5 to 2."""
    rng = np.random.default_rng(126)
    for k in range(count):
        omega = 10 ** rng.uniform(-5.0, math.log10(2.0))
        delta = rng.uniform(-1.0, 1.0)
        yield FockCutoff(4 + k % 3), SystemParams(
            gamma=float(rng.choice([0.0, 1e-9, rng.uniform(0.05, 4.0)])),
            chi=float(rng.choice([0.0, 0.5, 1.0])),
            delta_c=delta, delta_a=delta if k % 2 else rng.uniform(-1.0, 1.0),
            omega_c=omega, omega_a=omega * rng.uniform(0.0, 2.0),
            e_mag=4.0 * omega**2 * rng.uniform(0.0, 2.0), phi_d=rng.uniform(-math.pi, math.pi),
            x_phase=0.0 if k % 4 < 2 else rng.uniform(-3.0, 3.0),
        )


def _any_outcome(solve):
    """The state's bytes, or the type and message of what refused it."""
    try:
        return solve().tobytes()
    except (DegenerateSteadyStateError, PositivityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_certified_points_keep_every_outcome(monkeypatch):
    # GAP_MARGIN = inf certifies nothing, so every point runs the probe.
    assert any(_l0_gap(p, c) >= dynamics.GAP_MARGIN for c, p in _stress_draws(150))
    outcomes = {}
    for margin in (dynamics.GAP_MARGIN, math.inf):
        monkeypatch.setattr(dynamics, "GAP_MARGIN", margin)
        outcomes[margin] = [
            _any_outcome(lambda: _solve(params, cutoff)) for cutoff, params in _stress_draws(150)
        ]
    certified, probed = outcomes.values()
    refusals = [o for o in probed if isinstance(o, str)]
    assert (
        "DegenerateSteadyStateError: non-unique steady state: found a second null vector"
        in refusals
    )
    assert len(refusals) < len(probed)
    for (cutoff, params), got, want in zip(_stress_draws(150), certified, probed):
        if got != want:
            # The probe's steps may fail to halve on L0's factors where the
            # trace column's did; uncertified, such a point falls back to
            # the driven factors, whose state agrees to rounding.
            assert not isinstance(got, str) and not isinstance(want, str), params
            got, want = (np.frombuffer(o, dtype=complex) for o in (got, want))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), params


def test_solves_that_are_no_state_are_refused_as_singular():
    # L takes these solves near zero, on L0's factors and on A's own, but
    # three have a zero trace, by which the state's normalisation would
    # divide, and one a norm 3.8e8 times its trace.  A density matrix has
    # ||rho||_F <= tr rho.
    draws = list(_stress_draws(593))
    for k in (106, 439, 469, 592):
        cutoff, params = draws[k]
        for with_undriven in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(lambda: _solve(params, cutoff, with_undriven)) == SINGULAR, k


def test_certified_point_runs_no_probe(monkeypatch):
    tolerances, ranks = [], []
    refine, rank = dynamics._refine, scipy.sparse.csgraph.structural_rank

    def refine_spy(system, solve, b, tol):
        tolerances.append(tol)
        return refine(system, solve, b, tol)

    def rank_spy(matrix):
        ranks.append(matrix.shape)
        return rank(matrix)

    monkeypatch.setattr(dynamics, "_refine", refine_spy)
    monkeypatch.setattr(scipy.sparse.csgraph, "structural_rank", rank_spy)
    params = next(_point_n16_draws(1))
    cutoff = FockCutoff(16)
    assert _l0_gap(params, cutoff) >= dynamics.GAP_MARGIN
    certified = _solve(params, cutoff)
    assert (tolerances, ranks) == ([dynamics.WIDE_TOL], [])
    tolerances.clear()
    monkeypatch.setattr(dynamics, "GAP_MARGIN", math.inf)
    assert _solve(params, cutoff).tobytes() == certified.tobytes()
    assert tolerances == [dynamics.WIDE_TOL, dynamics.FLOAT_FLOOR] and len(ranks) == 1


def test_steady_state_does_not_depend_on_earlier_solves():
    lv = build_liouvillian(DRIVEN, HISTORY_CUTOFF)
    first = _own_factors(lv).tobytes()
    first_on_l0 = steady_state(lv).tobytes()
    # other values of the same pattern, other patterns, and points that fall
    # back from the undriven factors, solved in between
    other = replace(DRIVEN, gamma=2.5, delta_c=-0.8, omega_a=0.01, phi_d=-2.0)
    _solve(other, HISTORY_CUTOFF, with_undriven=False)
    _solve(other, HISTORY_CUTOFF)
    for n_max in (3, 4, 5):
        steady_state(build_liouvillian(DRIVEN, FockCutoff(n_max)))
    for params in (L0_SINGULAR, STRONG_DRIVE):
        _solve(params, HISTORY_CUTOFF)
    assert _own_factors(lv).tobytes() == first
    assert steady_state(lv).tobytes() == first_on_l0


DATA = os.path.join(os.path.dirname(__file__), "data")


def _run_fresh(code: str) -> str:
    fresh = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(),
        timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    return fresh.stdout


def test_steady_state_bytes_match_a_fresh_process():
    code = (
        "import hashlib\n"
        "from chiralqed.dynamics import steady_state\n"
        "from chiralqed.fock_algebra import FockCutoff\n"
        "from chiralqed.model import SystemParams, build_liouvillian\n"
        f"p = SystemParams(**{dataclasses.asdict(DRIVEN)!r})\n"
        f"rho = steady_state(build_liouvillian(p, FockCutoff({HISTORY_CUTOFF.n_max})))\n"
        "print(hashlib.sha256(rho.tobytes()).hexdigest())\n"
    )
    here = steady_state(build_liouvillian(DRIVEN, HISTORY_CUTOFF))
    assert _run_fresh(code).strip() == hashlib.sha256(here.tobytes()).hexdigest()



def _long_double_parts(values):
    """Each long-double entry as the exact sum of two floats (a 64-bit
    mantissa fits in two 53-bit ones), real and imaginary parts apart."""
    parts = []
    for part in (values.real, values.imag):
        hi = part.astype(float)
        parts.append((hi, (part - hi).astype(float)))
    return parts


def test_long_double_residual_is_accurate_to_its_precision():
    mpmath = pytest.importorskip("mpmath")
    wide = build_liouvillian(DRIVEN, FockCutoff(2)).astype(np.clongdouble)
    rng = np.random.default_rng(5)
    d2 = wide.shape[0]
    draw = lambda: rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    x = draw().astype(np.clongdouble) + draw().astype(np.clongdouble) * 2.0**-53
    b = draw()
    residual = dynamics._residual_wide(wide, b, x)
    assert residual.dtype == np.clongdouble

    def exact(values):
        (re_hi, re_lo), (im_hi, im_lo) = _long_double_parts(values)
        return [
            mpmath.mpc(mpmath.mpf(r) + mpmath.mpf(r_lo), mpmath.mpf(i) + mpmath.mpf(i_lo))
            for r, r_lo, i, i_lo in zip(re_hi, re_lo, im_hi, im_lo)
        ]

    with mpmath.workdps(40):
        xs, got, entries = exact(x), exact(residual), exact(wide.data)
        for i in range(d2):
            row = range(wide.indptr[i], wide.indptr[i + 1])
            terms = [entries[k] * xs[wide.indices[k]] for k in row]
            reference = mpmath.mpc(b[i]) - mpmath.fsum(terms)
            scale = mpmath.fsum(abs(term) for term in terms)
            assert abs(got[i] - reference) <= mpmath.mpf(2) ** -60 * scale, i


def _constrained_as_always(m):
    """The trace row stacked on m[1:], explicit zeros eliminated, and its CSC form."""
    dim = math.isqrt(m.shape[0])
    trace = scipy.sparse.csr_array(vectorize(np.eye(dim, dtype=complex))[np.newaxis, :])
    csr = scipy.sparse.vstack([trace, scipy.sparse.csr_array(m, dtype=complex)[1:]], format="csr")
    csr.eliminate_zeros()
    return csr, csr.tocsc()


def _random_generator(rng, dim):
    """A sparse matrix with some explicit zeros, not built by build_liouvillian."""
    m = scipy.sparse.random_array((dim * dim, dim * dim), density=0.2, rng=rng, format="csr")
    m = m + 1j * m.multiply(rng.standard_normal(m.shape)) + scipy.sparse.eye_array(m.shape[0])
    m = m.tocsr()
    m.data[::7] = 0.0
    return m


def _unsorted_with_duplicate(m):
    """m's CSR arrays with each row's column indices reversed and one entry of
    row 1 stored twice (the copy holds the value 2)."""
    m = scipy.sparse.csr_array(m, dtype=complex)
    order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(m.indptr, m.indptr[1:])])
    at, indices = m.indptr[1], m.indices[order]
    data, indices = np.insert(m.data[order], at, 2.0), np.insert(indices, at, indices[at])
    indptr = m.indptr + (np.arange(m.shape[0] + 1) > 1)
    return scipy.sparse.csr_array((data, indices, indptr), shape=m.shape)


def _empty_first_row(m):
    """m with no stored entry in row 0."""
    m = scipy.sparse.csr_array(m, dtype=complex)
    first = m.indptr[1]
    return scipy.sparse.csr_array(
        (m.data[first:], m.indices[first:], m.indptr - np.minimum(m.indptr, first)), shape=m.shape
    )


@pytest.mark.parametrize("n_max", [2, 8])
def test_constrained_system_puts_the_trace_row_in_place_of_row_0(n_max):
    cutoff = FockCutoff(n_max)
    generators = [
        maker(params, cutoff)
        for params in (DRIVEN, replace(DRIVEN, e_mag=0.0), L0_STRUCTURALLY_SINGULAR)
        for maker in (build_liouvillian, build_undriven_liouvillian)
    ]
    generators.append(_random_generator(np.random.default_rng(n_max), cutoff.dim))
    generators += [_unsorted_with_duplicate(generators[0]), _empty_first_row(generators[-1])]
    # each twice in a row: the second build must not depend on the first
    for m in [m for m in generators for _ in range(2)]:
        system = dynamics._system(m)
        for got, want in zip((system, system.tocsc()), _constrained_as_always(m)):
            for name in ("indptr", "indices", "data"):
                got_array, want_array = getattr(got, name), getattr(want, name)
                assert got_array.dtype == want_array.dtype
                assert got_array.tobytes() == want_array.tobytes()
        assert scipy.sparse.csgraph.structural_rank(system) == (
            scipy.sparse.csgraph.structural_rank(system.tocsc())
        )
    l0 = dynamics._system(build_undriven_liouvillian(L0_STRUCTURALLY_SINGULAR, cutoff))
    assert scipy.sparse.csgraph.structural_rank(l0) < l0.shape[0]
    assert dynamics._factorize(l0, l0=True) is None


def test_csc_inputs_give_the_bytes_of_csr_inputs():
    lv = build_liouvillian(DRIVEN, HISTORY_CUTOFF)
    assert steady_state(lv.tocsc()).tobytes() == steady_state(lv).tobytes()


def test_certified_generator_factorises_only_its_undriven_part(factorized):
    # a generator in CSR or CSC form is on the model's pattern once summed
    # into canonical CSR, so its L0 is found in it and its own factors never built
    params = next(_point_n16_draws(1))
    cutoff = FockCutoff(16)
    assert _l0_gap(params, cutoff) >= dynamics.GAP_MARGIN
    l0 = dynamics._system(build_undriven_liouvillian(params, cutoff))
    lv = build_liouvillian(params, cutoff)
    for form in (lv, lv.tocsc()):
        factorized.clear()
        steady_state(form)
        assert factorized == [(l0.nnz, True, SMALL_PANELS)]


def _each_entry_twice(m):
    """m's CSR arrays with each row's entries reversed and stored twice, each
    copy holding half the value: not canonical, but summing to m exactly."""
    m = scipy.sparse.csr_array(m, dtype=complex)
    rows = [np.arange(a, b)[::-1] for a, b in zip(m.indptr, m.indptr[1:])]
    order = np.concatenate([np.concatenate([row, row]) for row in rows])
    return scipy.sparse.csr_array(
        (0.5 * m.data[order], m.indices[order], 2 * m.indptr), shape=m.shape
    )


def test_steady_state_leaves_its_inputs_alone():
    cutoff = FockCutoff(6)
    for params in (DRIVEN, L0_SINGULAR, STRONG_DRIVE):
        lv = build_liouvillian(params, cutoff)
        states = []
        for m in (lv, _each_entry_twice(lv)):
            before = (m.data.copy(), m.indices.copy(), m.indptr.copy())
            states.append(steady_state(m))
            for now, then in zip((m.data, m.indices, m.indptr), before):
                assert now.tobytes() == then.tobytes()
        canonical, rho = states
        assert np.abs(rho - canonical).max() <= 1e-15 * np.abs(canonical).max(), params


FIVE_STATE = [
    trunc.from_system(SystemParams(
        gamma=gamma, delta_c=delta, delta_a=-delta, omega_c=0.03, omega_a=0.03, e_mag=1e-3,
    ))
    for gamma, delta in ((1.0, 0.0), (0.5, 1.0), (2.0, -3.0))
]


def test_stacked_steady_states_match_single_calls():
    stack = trunc.truncated_liouvillian(stack_params(FIVE_STATE))
    rhos = steady_state(stack)
    assert rhos.shape == (len(FIVE_STATE), 5, 5)
    for tp, member, rho in zip(FIVE_STATE, stack, rhos):
        single = trunc.truncated_liouvillian(tp)
        assert single.tobytes() == member.tobytes()
        assert steady_state(single).tobytes() == rho.tobytes()


def test_degenerate_member_fails_the_stack_with_its_own_message():
    # no drive and no collective decay: the dark single state never empties
    stuck = replace(trunc.from_system(SystemParams()), gamma_chi=0.0)
    with pytest.raises(DegenerateSteadyStateError) as single:
        steady_state(trunc.truncated_liouvillian(stuck))
    stack = trunc.truncated_liouvillian(stack_params([FIVE_STATE[0], stuck, FIVE_STATE[1]]))
    with pytest.raises(DegenerateSteadyStateError) as batched:
        steady_state(stack)
    assert str(batched.value) == str(single.value)


# Not a physical generator: its null space is one dimensional, spanned by
# vec(diag(0.7, 0.3)), but it does not preserve the trace, so its first row
# is not minus the sum of the other diagonal-position rows and the
# trace-constrained system is exactly singular though the state is unique.
NOT_TRACE_PRESERVING = np.array(
    [[0.3, 0, 0, -0.7], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0]], dtype=complex
)


def test_singular_system_raises_one_message_alone_and_in_a_stack():
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    stack = np.stack([
        lindblad(0.3 * (lower + lower.T), [lower]),
        NOT_TRACE_PRESERVING,
        lindblad(np.zeros((2, 2), dtype=complex), [lower]),
    ])
    for form in (NOT_TRACE_PRESERVING, scipy.sparse.csr_array(NOT_TRACE_PRESERVING), stack):
        assert _refusal(form) == SINGULAR


def test_five_state_and_analytic_paths_import_no_scipy(tmp_path):
    # the test modules import scipy, so only a fresh interpreter shows which
    # paths load it: the five-state engine, darkcheck, oracle-compare's
    # refusal of an x_phase and the dense solve must not, nor numpy.random,
    # and each of the full engine's local imports must be in place
    readme = os.path.join(DATA, "readme.ini")
    with open(readme, encoding="utf-8") as handle:
        config = handle.read()
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(
        config.replace("engine = full", "engine = truncated").replace("points = 41", "points = 21")
    )
    phased = tmp_path / "phased.ini"
    phased.write_text(config.replace("phi_d = 0.0", "phi_d = 0.0\nx_phase = 1.3"))

    def run(command, *args):
        argv = [command, *args, "--out", str(tmp_path / f"{command}.txt")]
        return f"assert chiralqed.cli.main({argv!r}) == 0\n"

    preamble = (
        "import sys\n"
        "import numpy as np\n"
        "import chiralqed, chiralqed.cli\n"
        "from chiralqed.dynamics import DegenerateSteadyStateError, steady_state\n"
        "from chiralqed.model import lindblad\n"
        f"not_trace_preserving = np.array({NOT_TRACE_PRESERVING.tolist()!r})\n"
        "def refused(lv):\n"
        "    try:\n"
        "        steady_state(lv)\n"
        "    except DegenerateSteadyStateError:\n"
        "        return True\n"
        "    return False\n"
    )
    five_state = (
        preamble
        + run("sweep", "--config", str(sweep))
        + run("darkcheck", "--config", readme)
        + f"assert chiralqed.cli.main(['oracle-compare', '--config', {str(phased)!r}]) == 2\n"
        + "lower = np.array([[0, 1], [0, 0]], dtype=complex)\n"
        "decay = lindblad(np.zeros((2, 2), dtype=complex), [lower])\n"
        "stack = np.stack([lindblad(0.3 * (lower + lower.T), [lower]), decay])\n"
        "assert steady_state(stack).shape == (2, 2, 2)\n"
        "assert refused(not_trace_preserving)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.random'))))\n"
    )
    assert _run_fresh(five_state).strip() == "[]"
    lines = (tmp_path / "sweep.txt").read_text().splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 21  # header, points
    full = (
        preamble
        + run("point", "--config", readme)
        + "import scipy.sparse\n"
        "assert refused(scipy.sparse.csr_array(not_trace_preserving))\n"
    )
    _run_fresh(full)


def test_stacked_input_needs_square_generators():
    for shape in ((3, 5, 5), (3, 4, 9)):
        with pytest.raises(ValueError, match="superoperator"):
            steady_state(np.zeros(shape, dtype=complex))


def test_evolve_zero_time_is_identity(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho0 = random_density(rng, CUTOFF.dim)
    np.testing.assert_allclose(evolve(lv, rho0, 0.0), rho0, atol=1e-14)


def test_evolve_argument_validation(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho0 = random_density(rng, CUTOFF.dim)
    with pytest.raises(ValueError):
        evolve(lv, rho0, -1.0)


def test_evolve_matches_matrix_exponential(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho0 = random_density(rng, CUTOFF.dim)
    for t in (0.3, 1.7):
        direct = devectorize(scipy.linalg.expm(lv.toarray() * t) @ vectorize(rho0))
        stepped = evolve(lv, rho0, t)
        np.testing.assert_allclose(stepped, direct, atol=1e-8)


def test_evolve_preserves_trace(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho0 = random_density(rng, CUTOFF.dim)
    for t in (0.5, 2.0, 10.0):
        assert np.trace(evolve(lv, rho0, t)).real == pytest.approx(1.0, abs=1e-9)


def test_evolve_relaxes_to_steady_state(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    target = steady_state(lv)
    rho0 = random_density(rng, CUTOFF.dim)
    late = evolve(lv, rho0, 200.0)
    assert np.linalg.norm(late - target) < 1e-8


def _trace_distance(x, y):
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(x - y)))


def test_evolution_contracts_trace_distance(rng):
    lv = build_liouvillian(DRIVEN, CUTOFF)
    rho_a = random_density(rng, CUTOFF.dim)
    rho_b = random_density(rng, CUTOFF.dim)
    dist = _trace_distance(rho_a, rho_b)
    for t in (0.5, 1.0, 3.0, 8.0):
        d_now = _trace_distance(evolve(lv, rho_a, t), evolve(lv, rho_b, t))
        assert d_now <= dist + 1e-9
        dist = d_now


def test_sparse_solve_keeps_weak_drive_g2_at_a_low_cutoff():
    """At chi = 0 the cavity is atom-independent, so at cutoff 4 its g2 must
    match the atom-free cavity's to near machine precision at every gamma."""
    cut = FockCutoff(4)
    cavity = SystemParams(chi=0.0, omega_c=0.01, omega_a=0.01, e_mag=4e-4)
    a = annihilation(cut)
    ad, e = a.conj().T, cavity.e_field
    h = 0.5j * (e.conjugate() * (a @ a) - e * (ad @ ad)) + 1j * cavity.omega_c * (a - ad)
    # The atom-free cavity's state, with the atom in |g>.
    reference = g2_zero(np.kron(np.diag([1.0, 0.0]), steady_state(lindblad(h, [a]))))
    for gamma in np.linspace(0.25, 4.0, 16):
        rho = steady_state(build_liouvillian(replace(cavity, gamma=gamma), cut))
        assert g2_zero(rho) == pytest.approx(reference, rel=1e-10, abs=0)


def test_photon_statistics_converged_in_cutoff():
    p = SystemParams(gamma=1.0, chi=0.0, omega_c=0.01, omega_a=0.01, e_mag=4e-4)
    values = []
    for n_max in (6, 10):
        cut = FockCutoff(n_max)
        rho = steady_state(build_liouvillian(p, cut))
        values.append(g2_zero(rho))
    assert values[0] == pytest.approx(values[1], abs=1e-8)
