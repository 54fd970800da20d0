import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqed import collective as coll
from chiralqed import observables as obs
from chiralqed import truncated_oracle as trunc
from chiralqed.fock_algebra import FockCutoff
from chiralqed.model import SystemParams, build_liouvillian, derive

from conftest import (
    collective_rates,
    eta,
    product_to_collective,
    project_liouvillian_to_block,
    random_density,
    sigma,
)

SQRT2 = math.sqrt(2.0)


def _weights(gamma: float) -> tuple[float, float]:
    u = math.sqrt(1.0 / (1.0 + gamma))
    return u, math.sqrt(gamma / (1.0 + gamma))


def _random_gauge(rng) -> coll.CollectiveParams:
    u, w = _weights(float(rng.uniform(0.2, 4.0)))
    t = float(rng.uniform(0.0, math.tau))
    return coll.CollectiveParams(u=u, w=w, alpha=math.cos(t), beta=math.sin(t))


def _hamiltonian(cp: coll.CollectiveParams, **fields) -> np.ndarray:
    """Five-state Hamiltonian of one point; gamma_chi does not enter it."""
    h, _ = trunc.truncated_operators(trunc.TruncatedParams(gamma_chi=0.0, cp=cp, **fields))
    return h


def test_params_validation():
    with pytest.raises(ValueError):
        coll.CollectiveParams(u=0.9, w=0.9, alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        coll.CollectiveParams(u=1 / SQRT2, w=1 / SQRT2, alpha=0.5, beta=0.5)


def test_default_gauge_selection():
    for gamma in (0.3, 1.0, 2.5):
        u, w = _weights(gamma)
        cp = coll.default_gauge(u, w)
        # the pump feeds only one double-excitation channel in this gauge
        assert u * cp.beta == pytest.approx(SQRT2 * w * cp.alpha, abs=1e-14)
        assert cp.alpha ** 2 + cp.beta ** 2 == pytest.approx(1.0, abs=1e-14)


def test_batch_gauge_members_equal_single_gauges():
    # at gamma = 1.345, np.hypot rounds the norm differently from math.hypot
    gammas = [0.3, 1.0, 1.345, 2.5, 1.345]
    u, w = _weights(1.345)
    assert np.hypot(u, SQRT2 * w) != math.hypot(u, SQRT2 * w)
    singles = [coll.default_gauge(*_weights(gamma)) for gamma in gammas]
    batch = coll.default_gauge(*(np.array(column) for column in zip(*map(_weights, gammas))))
    for name in ("u", "w", "alpha", "beta"):
        assert getattr(batch, name).tobytes() == np.array([getattr(cp, name) for cp in singles]).tobytes()
    assert coll.basis_change_matrix(batch).tobytes() == (
        np.stack([coll.basis_change_matrix(cp) for cp in singles]).tobytes()
    )
    for stacked, per_gauge in zip(
        coll.collective_jump_operators(batch),
        zip(*(coll.collective_jump_operators(cp) for cp in singles)),
    ):
        assert stacked.tobytes() == np.stack(per_gauge).tobytes()


def test_batch_gauge_with_a_member_off_the_unit_circle_raises():
    u, w = (np.array(column) for column in zip(*map(_weights, (0.5, 1.0, 2.0))))
    with pytest.raises(ValueError, match="alpha"):
        coll.CollectiveParams(u=u, w=w, alpha=np.array([1.0, 0.6, 1.0]), beta=np.array([0.0, 0.8, 0.1]))
    with pytest.raises(ValueError, match="u\\^2"):
        coll.CollectiveParams(u=u * [1.0, 1.0, 1.01], w=w, alpha=u, beta=w)


def test_eta_sigma_combinations(rng):
    for _ in range(5):
        cp = _random_gauge(rng)
        assert eta(cp) == pytest.approx(cp.alpha * cp.u + SQRT2 * cp.w * cp.beta)
        assert sigma(cp) == pytest.approx(cp.beta * cp.u - SQRT2 * cp.w * cp.alpha)


def test_from_system_matches_derived():
    p = SystemParams(gamma=0.7)
    cp = trunc.from_system(p).cp
    d = derive(p)
    assert cp.u == pytest.approx(d.u)
    assert cp.w == pytest.approx(d.w)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_basis_change_unitary(seed):
    cp = _random_gauge(np.random.default_rng(seed))
    unitary = coll.basis_change_matrix(cp)
    np.testing.assert_allclose(
        unitary.conj().T @ unitary, np.eye(5), atol=1e-14
    )


def test_basis_change_columns():
    cp = coll.CollectiveParams(u=0.6, w=0.8, alpha=0.28, beta=0.96)
    unitary = coll.basis_change_matrix(cp)
    # product rows ordered g0, g1, g2, e0, e1
    np.testing.assert_allclose(unitary[:, 0], [1, 0, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(unitary[:, 1], [0, 0.6, 0, 0.8, 0], atol=1e-15)
    np.testing.assert_allclose(unitary[:, 2], [0, 0.8, 0, -0.6, 0], atol=1e-15)
    np.testing.assert_allclose(unitary[:, 3], [0, 0, 0.28, 0, 0.96], atol=1e-15)
    np.testing.assert_allclose(unitary[:, 4], [0, 0, 0.96, 0, -0.28], atol=1e-15)


def test_product_five_ops():
    a5, s5 = coll.product_five_ops()
    expected_a = np.zeros((5, 5), dtype=complex)
    expected_a[0, 1] = 1.0
    expected_a[1, 2] = SQRT2
    expected_a[3, 4] = 1.0
    np.testing.assert_array_equal(a5, expected_a)
    expected_s = np.zeros((5, 5), dtype=complex)
    expected_s[0, 3] = 1.0
    expected_s[1, 4] = 1.0
    np.testing.assert_array_equal(s5, expected_s)


def test_bright_operator_matrix(rng):
    """The single decay channel against its closed-form matrix elements."""
    for _ in range(5):
        cp = _random_gauge(rng)
        bright, _ = coll.collective_jump_operators(cp)
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 3] = SQRT2 * cp.u * eta(cp)
        expected[1, 4] = SQRT2 * cp.u * sigma(cp)
        expected[2, 3] = SQRT2 * cp.w * eta(cp) - cp.beta
        expected[2, 4] = SQRT2 * cp.w * sigma(cp) + cp.alpha
        np.testing.assert_allclose(bright, expected, atol=1e-14)


def test_jump_operators_on_low_states():
    cp = coll.default_gauge(*_weights(1.0))
    bright, dark = coll.collective_jump_operators(cp)
    ground = np.array([1, 0, 0, 0, 0], dtype=complex)
    single_sym = np.array([0, 1, 0, 0, 0], dtype=complex)
    single_anti = np.array([0, 0, 1, 0, 0], dtype=complex)
    np.testing.assert_array_equal(bright @ ground, np.zeros(5))
    np.testing.assert_allclose(bright @ single_sym, ground, atol=1e-15)
    # the antisymmetric single-excitation state never radiates
    assert np.linalg.norm(bright @ single_anti) < 1e-15
    np.testing.assert_allclose(dark @ single_anti, ground, atol=1e-14)
    assert np.linalg.norm(dark @ single_sym) < 1e-14


def test_collective_rates_symmetric_aligned_gauge():
    cp = coll.CollectiveParams(u=1 / SQRT2, w=1 / SQRT2, alpha=1.0, beta=0.0)
    gamma_chi = 2.0
    rates = collective_rates(cp, gamma_chi)
    assert rates["xi_psi"] == pytest.approx(gamma_chi / 2)
    assert rates["zeta_psi"] == pytest.approx(gamma_chi)
    assert rates["xi_phi"] == pytest.approx(
        gamma_chi * (SQRT2 * cp.w * eta(cp) - cp.beta) ** 2
    )


def test_collective_rates_closed_forms(rng):
    for _ in range(5):
        cp = _random_gauge(rng)
        gamma_chi = float(rng.uniform(0.5, 5.0))
        rates = collective_rates(cp, gamma_chi)
        assert rates["xi_phi"] == pytest.approx(
            gamma_chi * (SQRT2 * cp.w * eta(cp) - cp.beta) ** 2, rel=1e-12
        )
        assert rates["xi_psi"] == pytest.approx(
            gamma_chi * 2 * cp.u ** 2 * eta(cp) ** 2, rel=1e-12
        )
        assert rates["zeta_phi"] == pytest.approx(
            gamma_chi * (SQRT2 * cp.w * sigma(cp) + cp.alpha) ** 2, rel=1e-12
        )
        assert rates["zeta_psi"] == pytest.approx(
            gamma_chi * 2 * cp.u ** 2 * sigma(cp) ** 2, rel=1e-12
        )


def test_collective_rates_sum_rule(rng):
    """Total decay out of each double state equals gamma_chi ||J |state>||^2."""
    for _ in range(5):
        cp = _random_gauge(rng)
        gamma_chi = float(rng.uniform(0.5, 5.0))
        rates = collective_rates(cp, gamma_chi)
        bright, _ = coll.collective_jump_operators(cp)
        for state_idx, name in ((3, "xi"), (4, "zeta")):
            vec = np.zeros(5, dtype=complex)
            vec[state_idx] = 1.0
            total = gamma_chi * np.linalg.norm(bright @ vec) ** 2
            assert rates[f"{name}_phi"] + rates[f"{name}_psi"] == pytest.approx(
                total, rel=1e-12
            )


def test_collective_rates_rejects_negative():
    cp = coll.default_gauge(*_weights(1.0))
    with pytest.raises(ValueError):
        collective_rates(cp, -1.0)


def test_effective_hamiltonian_hermitian(rng):
    for _ in range(5):
        cp = _random_gauge(rng)
        h = _hamiltonian(
            cp,
            g_chi=float(rng.uniform(0.0, 2.0)),
            delta_s=float(rng.uniform(-1.0, 1.0)),
            delta=float(rng.uniform(-1.0, 1.0)),
            omega_c=float(rng.uniform(0.0, 0.2)),
            omega_a=float(rng.uniform(0.0, 0.2)),
            e_field=complex(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)),
        )
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_effective_hamiltonian_detuning_diagonal(rng):
    """With equal detunings the diagonal part counts excitations."""
    for _ in range(3):
        cp = _random_gauge(rng)
        ds = float(rng.uniform(-2.0, 2.0))
        h = _hamiltonian(
            cp, g_chi=0.0, delta_s=ds, delta=0.0,
            omega_c=0.0, omega_a=0.0, e_field=0j,
        )
        np.testing.assert_allclose(h, ds * np.diag([0.0, 1, 1, 2, 2]), atol=1e-13)


def test_chiral_coupling_population_exchange(rng):
    """The coherent coupling alone transfers symmetric <-> antisymmetric weight."""
    g = 0.8
    for cp in (coll.default_gauge(*_weights(1.0)), _random_gauge(rng)):
        h = _hamiltonian(
            cp, g_chi=g, delta_s=0.0, delta=0.0,
            omega_c=0.0, omega_a=0.0, e_field=0j,
        )
        pops = np.diag(rng.uniform(0.0, 1.0, size=5)).astype(complex)
        drho = -1j * (h @ pops - pops @ h)
        assert drho[1, 2] == pytest.approx(g * (pops[1, 1] - pops[2, 2]).real)
        assert drho[3, 4] == pytest.approx(
            SQRT2 * g * (pops[3, 3] - pops[4, 4]).real
        )


def test_drive_block_transcription(rng):
    """Drive elements between excitation manifolds in closed form."""
    for _ in range(6):
        cp = _random_gauge(rng)
        oc = float(rng.uniform(0.0, 0.3))
        oa = float(rng.uniform(0.0, 0.3))
        h = _hamiltonian(
            cp, g_chi=0.0, delta_s=0.0, delta=0.0,
            omega_c=oc, omega_a=oa, e_field=0j,
        )
        u, w, al, be = cp.u, cp.w, cp.alpha, cp.beta
        expected = {
            (0, 1): u * oc + w * oa,
            (0, 2): w * oc - u * oa,
            (1, 3): (SQRT2 * u * al + w * be) * oc + u * be * oa,
            (1, 4): (SQRT2 * u * be - w * al) * oc - u * al * oa,
            (2, 3): (SQRT2 * w * al - u * be) * oc + w * be * oa,
            (2, 4): (SQRT2 * w * be + u * al) * oc - w * al * oa,
        }
        for (i, j), val in expected.items():
            assert abs(h[i, j] - 1j * val) < 1e-12, (i, j)


def test_pump_elements(rng):
    cp = _random_gauge(rng)
    e_field = complex(3e-3, -1e-3)
    h = _hamiltonian(
        cp, g_chi=0.0, delta_s=0.0, delta=0.0,
        omega_c=0.0, omega_a=0.0, e_field=e_field,
    )
    # <1|H|xi> = i alpha conj(E)/sqrt(2) and <1|H|zeta> = i beta conj(E)/sqrt(2)
    assert h[0, 3] == pytest.approx(1j * cp.alpha * np.conj(e_field) / SQRT2)
    assert h[0, 4] == pytest.approx(1j * cp.beta * np.conj(e_field) / SQRT2)


def test_basis_rotation_round_trip(rng):
    cp = _random_gauge(rng)
    rho = random_density(rng, 5)
    back = coll.collective_to_product(product_to_collective(rho, cp), cp)
    np.testing.assert_allclose(back, rho, atol=1e-14)
    rho_coll = product_to_collective(rho, cp)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_coll)),
        np.sort(np.linalg.eigvalsh(rho)),
        atol=1e-12,
    )


def test_ground_state_gauge_invariant(rng):
    cp = _random_gauge(rng)
    rho = np.zeros((5, 5), dtype=complex)
    rho[0, 0] = 1.0
    np.testing.assert_allclose(product_to_collective(rho, cp), rho, atol=1e-15)


def test_embedding_isometry():
    cutoff = FockCutoff(6)
    iso = coll.embedding_isometry(cutoff)
    assert iso.shape == (cutoff.dim, 5)
    np.testing.assert_allclose(iso.conj().T @ iso, np.eye(5), atol=1e-15)
    # columns pick out g0, g1, g2, e0, e1 in that order
    nf = cutoff.fock_dim
    for col, idx in enumerate((0, 1, 2, nf, nf + 1)):
        assert iso[idx, col] == 1.0


def test_collective_state_vector():
    cp = coll.CollectiveParams(u=0.6, w=0.8, alpha=0.28, beta=0.96)
    # expressed in the retained product basis (g0, g1, g2, e0, e1)
    basis = coll.basis_change_matrix(cp)
    five = basis[:, coll.COLLECTIVE_INDEX["psi"]]
    np.testing.assert_allclose(five, [0, 0.6, 0, 0.8, 0], atol=1e-15)
    np.testing.assert_allclose(
        basis[:, coll.COLLECTIVE_INDEX["zeta"]], [0, 0, 0.96, 0, -0.28], atol=1e-15
    )
    cutoff = FockCutoff(4)
    full = coll.embedding_isometry(cutoff) @ five
    assert full.shape == (cutoff.dim,)
    assert full[1] == pytest.approx(0.6)  # |g,1>
    assert full[cutoff.fock_dim] == pytest.approx(0.8)  # |e,0>
    # population reads the same vector on the full space
    rho = np.outer(full, full.conj())
    assert obs.population(rho, "psi", cp) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        obs.population(rho, "nope", cp)


def test_five_state_generator_matches_projected_full():
    """The effective five-state generator is the compressed product generator."""
    p = SystemParams(
        gamma=0.8, chi=0.3, delta_c=0.5, delta_a=-0.3,
        omega_c=0.04, omega_a=0.03, e_mag=2e-3, phi_d=0.8,
    )
    cutoff = FockCutoff(6)
    cp = trunc.from_system(p).cp
    lv_full = build_liouvillian(p, cutoff)
    projected = project_liouvillian_to_block(lv_full, cp, cutoff)
    tp = trunc.from_system(p)
    lv5 = trunc.truncated_liouvillian(tp)
    np.testing.assert_allclose(lv5, projected, atol=1e-12)
