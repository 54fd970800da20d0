import cmath
import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqed import model
from chiralqed.dynamics import steady_state, vectorize
from chiralqed.fock_algebra import FockCutoff, composite_operators
from chiralqed.model import SystemParams, build_liouvillian, derive, lindblad, undriven_part

from conftest import (
    OUT_OF_RANGE_FIELDS,
    build_hamiltonian,
    build_undriven_liouvillian,
    cascade_liouvillian,
    devectorize,
    random_density,
)

CUTOFF = FockCutoff(3)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(gamma=-0.5)
    with pytest.raises(ValueError):
        SystemParams(chi=1.5)
    with pytest.raises(ValueError):
        SystemParams(chi=-0.1)
    with pytest.raises(ValueError):
        SystemParams(omega_c=-0.01)
    with pytest.raises(ValueError):
        SystemParams(e_mag=-1e-4)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([f.name for f in fields(SystemParams)]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{name: value})


@settings(max_examples=60, deadline=None)
@given(OUT_OF_RANGE_FIELDS)
def test_params_reject_out_of_range(field_value):
    name, value = field_value
    with pytest.raises(ValueError, match=f"^{name} must"):
        SystemParams(**{name: value})


def test_e_field_polar_form():
    p = SystemParams(e_mag=2e-4, phi_d=math.pi / 2)
    assert p.e_field == pytest.approx(2e-4j)
    assert SystemParams(e_mag=3.0, phi_d=0.0).e_field == 3.0 + 0j


def test_derive_symmetric_point():
    d = derive(SystemParams(gamma=1.0, chi=0.0))
    assert d.u == pytest.approx(1 / math.sqrt(2))
    assert d.w == pytest.approx(1 / math.sqrt(2))
    assert d.g_chi == 0.5
    assert d.gamma_chi == 2.0


def test_derive_symmetric_coupling_vanishes():
    d = derive(SystemParams(gamma=1.0, chi=1.0))
    assert d.g_chi == 0.0
    assert d.gamma_chi == 4.0


def test_derive_detuning_split():
    d = derive(SystemParams(delta_c=5.0, delta_a=-5.0))
    assert d.delta_s == 0.0
    assert d.delta == 5.0
    d2 = derive(SystemParams(delta_c=1.0, delta_a=0.4))
    assert d2.delta_s == pytest.approx(0.7)
    assert d2.delta == pytest.approx(0.3)


def test_derive_weights_normalized():
    for gamma in (0.25, 1.0, 3.7):
        d = derive(SystemParams(gamma=gamma))
        assert d.u ** 2 + d.w ** 2 == pytest.approx(1.0, abs=1e-15)


def test_derive_drive_combinations():
    d = derive(SystemParams(gamma=1.0, omega_c=0.03, omega_a=0.01))
    r = 1 / math.sqrt(2)
    assert d.omega_psi == pytest.approx(r * 0.04)
    assert d.omega_phi == pytest.approx(r * 0.02)
    # matched drives on the symmetric point leave the dark combination empty
    balanced = derive(SystemParams(gamma=1.0, omega_c=0.02, omega_a=0.02))
    assert balanced.omega_phi == 0.0


def test_hamiltonian_zero_params():
    h = build_hamiltonian(SystemParams(), CUTOFF)
    np.testing.assert_array_equal(h, np.zeros((CUTOFF.dim, CUTOFF.dim)))


def test_hamiltonian_detuning_terms():
    h = build_hamiltonian(SystemParams(delta_c=1.0), CUTOFF)
    a, _ = composite_operators(CUTOFF)
    np.testing.assert_allclose(h, a.conj().T @ a, atol=1e-15)
    h2 = build_hamiltonian(SystemParams(delta_a=-2.0), CUTOFF)
    _, sm = composite_operators(CUTOFF)
    np.testing.assert_allclose(h2, -2.0 * sm.conj().T @ sm, atol=1e-15)


def test_hamiltonian_pump_element():
    e_mag, phi = 3e-4, 0.7
    h = build_hamiltonian(SystemParams(e_mag=e_mag, phi_d=phi), CUTOFF)
    e = e_mag * np.exp(1j * phi)
    # <g,0|H|g,2> comes from the pair-annihilation half of the pump
    assert h[0, 2] == pytest.approx(0.5j * np.conj(e) * math.sqrt(2))
    assert h[2, 0] == pytest.approx(np.conj(h[0, 2]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_hamiltonian_hermitian(seed):
    rng = np.random.default_rng(seed)
    p = SystemParams(
        gamma=float(rng.uniform(0.1, 3.0)),
        chi=float(rng.uniform(0.0, 1.0)),
        delta_c=float(rng.uniform(-2.0, 2.0)),
        delta_a=float(rng.uniform(-2.0, 2.0)),
        omega_c=float(rng.uniform(0.0, 0.2)),
        omega_a=float(rng.uniform(0.0, 0.2)),
        e_mag=float(rng.uniform(0.0, 0.01)),
        phi_d=float(rng.uniform(-math.pi, math.pi)),
    )
    h = build_hamiltonian(p, CUTOFF)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_lindblad_stack_matches_single_calls(rng):
    h = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    h = h + np.swapaxes(h.conj(), 1, 2)
    jumps = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    stack = lindblad(h, [jumps])
    assert stack.shape == (3, 16, 16)
    eye = np.eye(4, dtype=complex)
    for k in range(3):
        single = lindblad(h[k], [jumps[k]])
        assert stack[k].tobytes() == single.tobytes()
        # the np.kron assembly, byte for byte
        c = jumps[k]
        x = -1j * h[k] - 0.5 * (c.conj().T @ c)
        kron = np.kron(eye, x) + np.kron(x.conj(), eye) + np.kron(c.conj(), c)
        assert single.tobytes() == kron.tobytes()


def test_lindblad_single_photon_decay():
    a, _ = composite_operators(CUTOFF)
    h = np.zeros((CUTOFF.dim, CUTOFF.dim), dtype=complex)
    dv = lindblad(h, [math.sqrt(2.0) * a])
    rho = np.zeros((CUTOFF.dim, CUTOFF.dim), dtype=complex)
    rho[1, 1] = 1.0  # |g,1><g,1|
    drho = devectorize(dv @ vectorize(rho))
    expected = np.zeros_like(rho)
    expected[0, 0] = 2.0
    expected[1, 1] = -2.0
    np.testing.assert_allclose(drho, expected, atol=1e-14)


def test_liouvillian_trace_preserving(rng):
    lv = build_liouvillian(
        SystemParams(gamma=0.7, chi=0.4, delta_c=0.3, omega_c=0.05, e_mag=1e-3),
        CUTOFF,
    )
    tr = vectorize(np.eye(CUTOFF.dim, dtype=complex)).conj()
    for _ in range(20):
        rho = random_density(rng, CUTOFF.dim)
        assert abs(tr @ (lv @ vectorize(rho))) < 1e-12


def test_liouvillian_preserves_hermiticity(rng):
    lv = build_liouvillian(
        SystemParams(gamma=1.3, chi=0.2, delta_a=-0.4, omega_a=0.03, e_mag=2e-3,
                     phi_d=1.1),
        CUTOFF,
    )
    for _ in range(5):
        rho = random_density(rng, CUTOFF.dim)
        drho = devectorize(lv @ vectorize(rho))
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


@pytest.mark.parametrize("chi", [0.0, 0.3, 1.0])
def test_liouvillian_matches_cascade_form(chi):
    """Local-plus-cross assembly against the independent jump-operator form."""
    p = SystemParams(
        gamma=0.8,
        chi=chi,
        delta_c=0.6,
        delta_a=-0.2,
        omega_c=0.04,
        omega_a=0.07,
        e_mag=5e-3,
        phi_d=0.9,
    )
    lv = build_liouvillian(p, CUTOFF).toarray()
    ref = cascade_liouvillian(p, CUTOFF.n_max)
    np.testing.assert_allclose(lv, ref, atol=1e-13)


def test_undriven_generator_is_block_triangular_in_excitation_number():
    """L0 keeps n_p - n_q of each |p><q| and never raises n_p: the structure
    that lets SuperLU factorise it almost without fill."""
    p = SystemParams(gamma=0.7, chi=0.4, delta_c=0.3, delta_a=-0.2, omega_c=0.05,
                     omega_a=0.02, e_mag=0.01, phi_d=0.4, x_phase=0.9)
    l0 = undriven_part(build_liouvillian(p, CUTOFF))
    zeroed = replace(p, omega_c=0.0, omega_a=0.0, e_mag=0.0)
    assert (l0 != build_liouvillian(zeroed, CUTOFF)).nnz == 0
    a, sm = composite_operators(CUTOFF)
    number = np.diag(a.conj().T @ a + sm.conj().T @ sm).real.round().astype(int)
    ket = np.tile(number, CUTOFF.dim)  # column stacking: index p + D q holds |p><q|
    bra = np.repeat(number, CUTOFF.dim)
    rows, cols = l0.nonzero()
    assert np.array_equal(ket[rows] - bra[rows], ket[cols] - bra[cols])
    assert np.all(ket[rows] <= ket[cols])


def test_undriven_part_is_the_undriven_generator_byte_for_byte():
    # the pump and drive terms share no stored entry with the other eight,
    # so zeroing theirs leaves the others' sums as build_liouvillian made them
    rng = np.random.default_rng(28)
    for n_max in (2, 3, 5, 8, 16, 24, 40):
        cutoff = FockCutoff(n_max)
        for k in range(3):
            p = SystemParams(
                gamma=0.0 if k == 0 else rng.uniform(0.1, 3.0), chi=rng.uniform(0.0, 1.0),
                delta_c=rng.uniform(-1.0, 1.0), delta_a=rng.uniform(-1.0, 1.0),
                omega_c=rng.uniform(0.0, 0.2), omega_a=rng.uniform(0.0, 0.2),
                e_mag=rng.uniform(0.0, 0.05), phi_d=rng.uniform(-3.0, 3.0),
                x_phase=rng.uniform(-3.0, 3.0),
            )
            got = undriven_part(build_liouvillian(p, cutoff))
            want = build_undriven_liouvillian(p, cutoff)
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (n_max, p)


def test_undriven_part_refuses_other_generators(monkeypatch):
    lv = build_liouvillian(SystemParams(omega_c=0.05, e_mag=0.01), CUTOFF)
    assert undriven_part(lv) is not None
    # one stored entry more than the model's pattern: an explicit zero
    coo = lv.tocoo()
    stored = np.zeros(lv.shape, dtype=bool)
    stored[coo.row, coo.col] = True
    row, col = np.argwhere(~stored)[0]
    extra = scipy.sparse.csr_array(
        (np.append(coo.data, 0.0), (np.append(coo.row, row), np.append(coo.col, col))),
        shape=lv.shape,
    )
    assert extra.nnz == lv.nnz + 1 and undriven_part(extra) is None

    def no_terms(cutoff):
        raise AssertionError(f"terms built at {cutoff}")

    # an odd D, or one below 6, is no cutoff's, and a matrix whose count of
    # stored entries is not the model's is on no pattern: the terms are not built
    monkeypatch.setattr(model, "_terms", no_terms)
    for dim in (2, 3, 4, 5, 7, 9):
        square = scipy.sparse.eye_array(dim * dim, dtype=complex, format="csr")
        assert undriven_part(square) is None, dim
    rng = np.random.default_rng(29)
    noise = scipy.sparse.random_array((324, 324), density=0.05, rng=rng, format="csr")
    assert noise.nnz != 4332  # the model's entries at n_max = 8, where D^2 = 324
    assert model.pattern_cutoff(noise) is None and undriven_part(noise) is None


def test_undriven_steady_state_is_vacuum():
    lv = build_liouvillian(SystemParams(gamma=1.0, chi=0.0), CUTOFF)
    rho = steady_state(lv)
    expected = np.zeros((CUTOFF.dim, CUTOFF.dim), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_placement_phase_period():
    p = SystemParams(gamma=0.9, chi=0.1, omega_c=0.05, e_mag=1e-3)
    base = build_liouvillian(p, CUTOFF).toarray()
    for turns in (1, 2, -3):
        shifted = build_liouvillian(
            replace(p, x_phase=turns * math.tau), CUTOFF
        ).toarray()
        np.testing.assert_array_equal(shifted, base)


def test_placement_phase_quadrature_identity():
    # cos and sin contributions cancel pairwise in this combination
    p = SystemParams(gamma=1.0, chi=0.5, delta_c=0.2, omega_a=0.06)
    lhs = build_liouvillian(replace(p, x_phase=0.0), CUTOFF) + build_liouvillian(
        replace(p, x_phase=math.pi), CUTOFF
    )
    rhs = build_liouvillian(replace(p, x_phase=math.pi / 2), CUTOFF) + (
        build_liouvillian(replace(p, x_phase=-math.pi / 2), CUTOFF)
    )
    np.testing.assert_allclose(lhs.toarray(), rhs.toarray(), atol=1e-13)


def _cavity_state(rho):
    """Reduced cavity state: trace out the atom (atom-major product order)."""
    fock = CUTOFF.fock_dim
    return np.einsum("ajak->jk", rho.reshape(2, fock, 2, fock))


def test_directional_coupling_is_cascaded():
    """At chi = 0 nothing the atom does reaches the cavity, at any placement."""
    cavity = SystemParams(chi=0.0, delta_c=0.4, omega_c=0.05, e_mag=2e-3, phi_d=0.3)
    reference = _cavity_state(steady_state(build_liouvillian(cavity, CUTOFF)))
    grid = itertools.product(
        (0.5, 1.7), (-0.6, 0.9), (0.0, 0.08), (0.0, 0.5, math.pi / 2, 2.5)
    )
    for gamma, delta_a, omega_a, x_phase in grid:
        p = replace(cavity, gamma=gamma, delta_a=delta_a, omega_a=omega_a,
                    x_phase=x_phase)
        rho = steady_state(build_liouvillian(p, CUTOFF))
        np.testing.assert_allclose(_cavity_state(rho), reference, rtol=0, atol=1e-12)


def test_symmetric_coupling_has_no_coherent_exchange():
    """chi = 1 kills the bright/dark coupling but doubles the decay."""
    p = SystemParams(gamma=1.0, chi=1.0, omega_c=0.05)
    d = derive(p)
    assert d.g_chi == 0.0
    lv = build_liouvillian(p, CUTOFF).toarray()
    ref = cascade_liouvillian(p, CUTOFF.n_max)
    np.testing.assert_allclose(lv, ref, atol=1e-13)


def _direct_liouvillian(p: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """The cascaded generator as one dense lindblad(h, jumps) call, written out
    term by term as build_liouvillian assembled it before its terms were cached."""
    a, sm = composite_operators(cutoff)
    ad, sp = a.conj().T, sm.conj().T
    e = p.e_field
    h = p.delta_c * (ad @ a) + p.delta_a * (sp @ sm)
    h = h + 0.5j * (e.conjugate() * (a @ a) - e * (ad @ ad))
    h = h + 1j * (p.omega_c * a + p.omega_a * sm) - 1j * (p.omega_c * ad + p.omega_a * sp)
    phase = cmath.rect(1.0, math.remainder(p.x_phase, math.tau))
    root = math.sqrt(p.gamma)
    h = h - 0.5j * root * (phase * (sp @ a) - phase.conjugate() * (ad @ sm))
    h = h - 0.5j * p.chi * root * (phase * (ad @ sm) - phase.conjugate() * (sp @ a))
    jumps = [math.sqrt(p.gamma) * sm + phase * a]
    if p.chi > 0:
        jumps.append(math.sqrt(p.chi) * a + phase * math.sqrt(p.chi * p.gamma) * sm)
    return lindblad(h, jumps)


def _maybe_zero(strategy):
    return st.just(0.0) | strategy


@settings(max_examples=60, deadline=None)
@given(
    chi=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    x_phase=st.sampled_from([0.0, 0.5, 2.5, 7.0]),
    gamma=_maybe_zero(st.floats(0.05, 4.0)),
    detunings=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    drives=_maybe_zero(st.floats(0.001, 0.2)).flatmap(
        lambda omega: st.tuples(st.just(omega), _maybe_zero(st.floats(0.001, 0.2)))
    ),
    pump=st.tuples(_maybe_zero(st.floats(1e-5, 0.05)), st.floats(-math.pi, math.pi)),
    n_max=st.integers(2, 12),
)
def test_cached_terms_match_the_direct_lindblad_form(
    chi, x_phase, gamma, detunings, drives, pump, n_max
):
    p = SystemParams(
        gamma=gamma, chi=chi, x_phase=x_phase, delta_c=detunings[0], delta_a=detunings[1],
        omega_c=drives[0], omega_a=drives[1], e_mag=pump[0], phi_d=pump[1],
    )
    cutoff = FockCutoff(n_max)
    reference = _direct_liouvillian(p, cutoff)
    lv = build_liouvillian(p, cutoff).toarray()
    assert np.abs(lv - reference).max() <= 1e-14 * np.abs(reference).max()


# Writes a returned generator may see: each must leave the cached terms alone.
def _scramble_then_sort(lv):
    for row in range(lv.shape[0]):
        span = slice(lv.indptr[row], lv.indptr[row + 1])
        lv.indices[span] = lv.indices[span][::-1]
        lv.data[span] = lv.data[span][::-1]
    lv.has_sorted_indices = False
    lv.sort_indices()


def _write_data(lv):
    lv.data[:] = 7.0


GENERATOR_WRITES = {
    "eliminate_zeros": lambda lv: lv.eliminate_zeros(),
    "sort_indices": _scramble_then_sort,
    "write_data": _write_data,
}


@pytest.mark.parametrize("write", GENERATOR_WRITES.values(), ids=GENERATOR_WRITES.keys())
def test_writing_into_a_generator_leaves_the_next_build_unchanged(write):
    # x_phase = 0 leaves the Im Gamma_as block unweighted: explicit zeros to eliminate
    p = SystemParams(gamma=0.7, chi=0.4, delta_c=0.3, omega_c=0.05, e_mag=1e-3)
    first = build_liouvillian(p, CUTOFF)
    expected = first.toarray().tobytes()
    stored = first.nnz
    write(first)
    second = build_liouvillian(p, CUTOFF)
    assert second.nnz == stored
    assert second.toarray().tobytes() == expected
    for name in ("data", "indices", "indptr"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name))


def test_eliminate_zeros_has_zeros_to_remove():
    # the write above is only a check if the generator stores explicit zeros
    lv = build_liouvillian(SystemParams(gamma=0.7, chi=0.4, delta_c=0.3, omega_c=0.05), CUTOFF)
    stored = lv.nnz
    lv.eliminate_zeros()
    assert lv.nnz < stored


def test_hamiltonian_is_the_direct_form_without_the_exchange():
    p = SystemParams(gamma=1.3, chi=0.3, delta_c=0.4, delta_a=-0.7, omega_c=0.05,
                     omega_a=0.02, e_mag=3e-3, phi_d=2.1, x_phase=0.5)
    a, sm = composite_operators(CUTOFF)
    ad, sp = a.conj().T, sm.conj().T
    e = p.e_field
    direct = p.delta_c * (ad @ a) + p.delta_a * (sp @ sm)
    direct = direct + 0.5j * (e.conjugate() * (a @ a) - e * (ad @ ad))
    direct = direct + 1j * (p.omega_c * (a - ad) + p.omega_a * (sm - sp))
    np.testing.assert_allclose(build_hamiltonian(p, CUTOFF), direct, rtol=0, atol=1e-15)
