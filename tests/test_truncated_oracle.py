import math
from dataclasses import replace

import numpy as np
import pytest

from chiralqed import collective as coll
from chiralqed import truncated_oracle as trunc
from chiralqed.dynamics import DegenerateSteadyStateError, steady_state, vectorize
from chiralqed.fock_algebra import FockCutoff
from chiralqed.model import SystemParams, build_liouvillian, derive, lindblad

from conftest import (
    analytic_dark_rho,
    collective_rates,
    devectorize,
    random_density,
    stack_params,
    truncated_rhs,
)

SQRT2 = math.sqrt(2.0)

GENERIC = SystemParams(
    gamma=0.9, chi=0.25, delta_c=0.3, delta_a=-0.2,
    omega_c=0.05, omega_a=0.03, e_mag=2e-3, phi_d=0.4,
)


def test_params_validation():
    cp = coll.default_gauge(1 / SQRT2, 1 / SQRT2)
    with pytest.raises(ValueError):
        trunc.TruncatedParams(
            g_chi=0.5, gamma_chi=-1.0, delta_s=0.0, delta=0.0,
            omega_c=0.0, omega_a=0.0, e_field=0j, cp=cp,
        )


def test_from_system_keeps_the_pump_bitwise():
    # GENERIC's pump does not survive a division by sqrt(2) and a
    # multiplication back, so a scaled copy of it would show here.
    assert trunc.from_system(GENERIC).e_field == GENERIC.e_field


def test_from_system_mapping():
    tp = trunc.from_system(GENERIC)
    d = derive(GENERIC)
    assert tp.g_chi == pytest.approx(d.g_chi)
    assert tp.gamma_chi == pytest.approx(d.gamma_chi)
    assert tp.delta_s == pytest.approx(d.delta_s)
    assert tp.delta == pytest.approx(d.delta)
    assert tp.e_field == pytest.approx(GENERIC.e_field)
    assert tp.cp.u == pytest.approx(d.u)


def _per_point_generators(tps):
    """Each point's generator from its own assembly, stacked afterwards."""
    generators = []
    for tp in tps:
        h, bright = trunc.truncated_operators(tp)
        generators.append(lindblad(h, [math.sqrt(tp.gamma_chi) * bright]))
    return np.stack(generators)


def test_gamma_sweep_stack_matches_per_point_assembly():
    # each gamma has its own weights (u, w), so every point has its own gauge
    tps = [
        trunc.from_system(replace(GENERIC, gamma=gamma))
        for gamma in np.linspace(0.25, 4.0, 7)
    ]
    assert len({tp.cp for tp in tps}) == len(tps)
    stacked = trunc.truncated_liouvillian(stack_params(tps))
    per_point = _per_point_generators(tps)
    assert np.array_equal(stacked, per_point)
    assert stacked.tobytes() == per_point.tobytes()  # signed zeros too


def test_stack_with_mixed_overrides_matches_per_point_assembly():
    physical = trunc.from_system(GENERIC)
    tps = [
        physical,
        replace(physical, g_chi=4.0),
        replace(physical, gamma_chi=0.5),
        replace(physical, g_chi=-1.5, gamma_chi=3.0),
        trunc.from_system(replace(GENERIC, delta_c=-2.0, gamma=2.0)),
        physical,
    ]
    stacked = trunc.truncated_liouvillian(stack_params(tps))
    per_point = _per_point_generators(tps)
    assert np.array_equal(stacked, per_point)
    assert stacked.tobytes() == per_point.tobytes()  # signed zeros too
    assert trunc.truncated_liouvillian(tps[1]).tobytes() == stacked[1].tobytes()


def test_rhs_matches_liouvillian_route(rng):
    tp = trunc.from_system(GENERIC)
    lv = trunc.truncated_liouvillian(tp)
    for _ in range(5):
        rho = random_density(rng, 5)
        direct = truncated_rhs(rho, tp)
        via_superop = devectorize(lv @ vectorize(rho))
        np.testing.assert_allclose(direct, via_superop, atol=1e-13)


def test_rhs_traceless_and_hermitian(rng):
    tp = trunc.from_system(GENERIC)
    for _ in range(10):
        rho = random_density(rng, 5)
        drho = truncated_rhs(rho, tp)
        assert abs(np.trace(drho)) < 1e-14
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


def test_rhs_shape_check():
    tp = trunc.from_system(GENERIC)
    with pytest.raises(ValueError):
        truncated_rhs(np.eye(4, dtype=complex) / 4, tp)


def test_symmetric_single_state_decays_at_collective_rate():
    p = SystemParams(gamma=1.0, chi=0.0)
    tp = trunc.from_system(p)
    rho = np.zeros((5, 5), dtype=complex)
    rho[1, 1] = 1.0
    drho = truncated_rhs(rho, tp)
    assert drho[1, 1].real == pytest.approx(-tp.gamma_chi)
    assert drho[0, 0].real == pytest.approx(tp.gamma_chi)


def test_antisymmetric_state_feeds_coherence_only():
    """|phi> is decay-free; the chiral coupling alone moves its amplitude."""
    p = SystemParams(gamma=1.0, chi=0.0)
    tp = trunc.from_system(p)
    rho = np.zeros((5, 5), dtype=complex)
    rho[2, 2] = 1.0
    drho = truncated_rhs(rho, tp)
    assert drho[2, 2] == pytest.approx(0.0, abs=1e-15)
    assert drho[1, 2] == pytest.approx(-tp.g_chi)
    assert drho[2, 1] == pytest.approx(-tp.g_chi)


def test_double_states_feed_singles_at_tabulated_rates(rng):
    tp = trunc.from_system(GENERIC)
    rates = collective_rates(tp.cp, tp.gamma_chi)
    p_xi, p_zeta = rng.uniform(0.2, 0.5, size=2)
    rho = np.diag([1 - p_xi - p_zeta, 0.0, 0.0, p_xi, p_zeta]).astype(complex)
    drho = truncated_rhs(rho, tp)
    # remove the coherent-drive contribution to isolate the decay feed
    h, _ = trunc.truncated_operators(tp)
    coherent = -1j * (h @ rho - rho @ h)
    feed = drho - coherent
    assert feed[2, 2].real == pytest.approx(
        rates["xi_phi"] * p_xi + rates["zeta_phi"] * p_zeta, rel=1e-10
    )
    assert feed[1, 1].real == pytest.approx(
        rates["xi_psi"] * p_xi + rates["zeta_psi"] * p_zeta, rel=1e-10
    )


def test_undriven_steady_state_is_ground():
    p = SystemParams(gamma=0.8, chi=0.2)
    rho5 = steady_state(trunc.truncated_liouvillian(trunc.from_system(p)))
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho5, expected, atol=1e-13)


def test_undriven_without_coupling_is_degenerate():
    # g_chi = 0 leaves both the ground and the antisymmetric single state dark
    p = SystemParams(gamma=1.0, chi=1.0)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(trunc.truncated_liouvillian(trunc.from_system(p)))


def test_steady_state_gauge_independent(rng):
    """Physical predictions cannot depend on the double-excitation gauge."""
    d = derive(GENERIC)
    default = coll.default_gauge(d.u, d.w)
    for _ in range(3):
        t = float(rng.uniform(0.0, math.tau))
        other = coll.CollectiveParams(
            u=d.u, w=d.w, alpha=math.cos(t), beta=math.sin(t)
        )
        rho_default = coll.collective_to_product(
            steady_state(trunc.truncated_liouvillian(trunc.from_system(GENERIC))), default
        )
        tp_other = replace(trunc.from_system(GENERIC), cp=other)
        rho_other = coll.collective_to_product(
            steady_state(trunc.truncated_liouvillian(tp_other)), other
        )
        assert np.linalg.norm(rho_default - rho_other) < 1e-10


def test_truncated_matches_full_at_weak_driving(dark_point):
    """Five-state steady state against the full solver, compared on the block."""
    cutoff = FockCutoff(8)
    tp = trunc.from_system(dark_point)
    rho5_prod = coll.collective_to_product(steady_state(trunc.truncated_liouvillian(tp)), tp.cp)
    rho_full = steady_state(build_liouvillian(dark_point, cutoff))
    iso = coll.embedding_isometry(cutoff)
    block = iso.conj().T @ rho_full @ iso
    assert np.linalg.norm(block - rho5_prod) < 1e-5


def test_steady_state_reaches_analytic_dark_mixture(dark_point):
    ana = analytic_dark_rho(dark_point)
    rho5 = steady_state(trunc.truncated_liouvillian(trunc.from_system(dark_point)))
    assert rho5[0, 0].real == pytest.approx(ana.rho_11, abs=1e-9)
    assert rho5[2, 2].real == pytest.approx(ana.rho_phiphi, abs=1e-9)
    assert rho5[0, 2] == pytest.approx(ana.rho_1phi, abs=1e-8)
    assert abs(rho5[1, 1]) < 1e-9
    assert abs(rho5[3, 3]) + abs(rho5[4, 4]) < 1e-9
