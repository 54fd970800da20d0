import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from chiralqed import dark_state as ds
from chiralqed import truncated_oracle as trunc
from chiralqed.model import DerivedParams, SystemParams, derive

SQRT2 = math.sqrt(2.0)


def _derived(u=1 / SQRT2, w=1 / SQRT2, g_chi=0.5, delta=0.0, delta_s=0.0,
             omega_psi=0.0, omega_phi=0.0):
    return DerivedParams(
        u=u, w=w, g_chi=g_chi, gamma_chi=2.0, delta_s=delta_s, delta=delta,
        omega_psi=omega_psi, omega_phi=omega_phi,
    )


# ---------------------------------------------------------------- single manifold


def test_single_state_undriven_is_ground():
    amp = ds.dfs_state_single(_derived(omega_psi=0.0))
    assert amp.c1 == 1.0 + 0j
    assert amp.c_phi == 0j


def test_single_state_known_ratio():
    # 2 u w delta = 0 and g = 0.5: ratio = i * 0.02 * (i 0.5) / 0.25 = -0.04
    amp = ds.dfs_state_single(_derived(omega_psi=0.02))
    assert amp.c_phi / amp.c1 == pytest.approx(-0.04, abs=1e-15)
    assert abs(amp.c1) ** 2 + abs(amp.c_phi) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_single_state_strong_drive_saturates():
    amp = ds.dfs_state_single(_derived(omega_psi=100.0))
    assert abs(amp.c_phi) > 0.99


def test_single_state_needs_a_restoring_scale():
    with pytest.raises(ds.DarkStateError):
        ds.dfs_state_single(_derived(g_chi=0.0, delta=0.0, omega_psi=0.02))


def test_single_conditions_balanced_drives_exact():
    # omega_c / omega_a = u / w makes the dark combination vanish identically
    for gamma in (1.0, 0.6):
        d0 = derive(SystemParams(gamma=gamma))
        scale = 0.0625  # power of two, so the products commute bitwise
        p = SystemParams(gamma=gamma, omega_c=d0.u * scale, omega_a=d0.w * scale)
        rep = ds.dark_conditions_single(derive(p))
        assert rep.omega_phi_zero
        assert rep.omega_phi_residual == 0.0


def test_single_conditions_detuning_ratio():
    # delta_c / delta_a = -(u/w)^2 puts the transition on resonance
    p = SystemParams(gamma=1.0, delta_c=0.7, delta_a=-0.7,
                     omega_c=0.01, omega_a=0.01)
    rep = ds.dark_conditions_single(derive(p))
    assert rep.shift_zero
    assert rep.omega_phi_zero


def test_single_conditions_report_violations():
    rep = ds.dark_conditions_single(_derived(omega_psi=0.03, omega_phi=0.02))
    assert not rep.omega_phi_zero
    assert rep.omega_phi_residual == pytest.approx(0.02)
    rep2 = ds.dark_conditions_single(_derived(delta_s=0.4, omega_psi=0.03))
    assert not rep2.shift_zero
    assert rep2.shift_residual == pytest.approx(0.4)


# ---------------------------------------------------------------- double manifold


def test_requirements_symmetric_point(dark_point):
    ratio, required = ds.dfs_requirements_double(dark_point)
    # |ratio| = sqrt(2) omega_c / g and |E| = 4 omega_c^2 here (u = w, delta = 0)
    assert abs(ratio) == pytest.approx(SQRT2 * 0.01 / 0.5, rel=1e-12)
    assert required == pytest.approx(4e-4 + 0j, abs=1e-18)
    assert ratio.real == pytest.approx(-0.028284271247461905, abs=1e-15)
    assert ratio.imag == 0.0


def test_requirements_detuned_symmetric_coupling():
    p = SystemParams(gamma=1.0, chi=1.0, delta_c=1.0, delta_a=-1.0,
                     omega_c=0.01, omega_a=0.01)
    ratio, required = ds.dfs_requirements_double(p)
    assert abs(required) == pytest.approx(2e-4, rel=1e-12)
    assert cmath.phase(required) == pytest.approx(-math.pi / 2, abs=1e-12)
    # the state tilts along i exp(i theta) with theta = 0 here
    assert ratio == pytest.approx(SQRT2 * 0.01 * 1j, rel=1e-12)


def test_requirements_general_weights():
    gamma = 2.5
    d0 = derive(SystemParams(gamma=gamma))
    scale = 0.03125
    p = SystemParams(gamma=gamma, chi=0.2, delta_c=0.4, delta_a=-0.1,
                     omega_c=d0.w * scale, omega_a=d0.u * scale)
    d = derive(p)
    ratio, required = ds.dfs_requirements_double(p)
    hyp = math.hypot(2 * d.u * d.w * d.delta, d.g_chi)
    assert abs(ratio) == pytest.approx(2 * d.u * p.omega_c / hyp, rel=1e-12)
    assert abs(required) == pytest.approx(
        4 * d.u * d.w * p.omega_c ** 2 / hyp, rel=1e-12
    )


def test_requirements_reject_unbalanced_drives():
    p = SystemParams(gamma=1.0, omega_c=0.01, omega_a=0.03)
    with pytest.raises(ds.DarkStateError):
        ds.dfs_requirements_double(p)


def test_requirements_undriven_are_trivial():
    ratio, required = ds.dfs_requirements_double(SystemParams(gamma=1.0, chi=1.0))
    assert ratio == 0j
    assert required == 0j


def test_requirements_phase_undefined():
    p = SystemParams(gamma=1.0, chi=1.0, omega_c=0.01, omega_a=0.01)
    with pytest.raises(ds.DarkStateError):
        ds.dfs_requirements_double(p)


def test_conditions_all_met(dark_point):
    rep = ds.dark_conditions_double(dark_point)
    flags = rep.condition_flags
    assert flags["omega_a_equals_omega_c"]
    assert flags["kappa_equals_gamma"]
    assert flags["delta_s_zero"]
    assert flags["e_matches"]
    assert not flags["phase_free"]
    assert rep.dfs_residual < 1e-12
    assert rep.dark_residual < 1e-12
    assert rep.jump_residual < 1e-15
    assert rep.required_E == pytest.approx(4e-4, abs=1e-18)
    # predicted amplitudes agree with the requirement ratio
    ratio, _ = ds.dfs_requirements_double(dark_point)
    assert rep.predicted_state.c_phi / rep.predicted_state.c1 == pytest.approx(
        ratio, rel=1e-12
    )


def test_conditions_report_wrong_pump(dark_point):
    rep = ds.dark_conditions_double(replace(dark_point, e_mag=1e-3))
    assert not rep.condition_flags["e_matches"]
    assert rep.dfs_residual > 1e-5
    assert rep.jump_residual < 1e-15  # still confined to the protected pair


def test_conditions_report_detuning(dark_point):
    rep = ds.dark_conditions_double(
        replace(dark_point, delta_c=0.3, delta_a=0.3)
    )
    assert not rep.condition_flags["delta_s_zero"]
    assert rep.dark_residual > 1e-4
    assert rep.dfs_residual < 1e-12  # leakage stays inside the protected pair
    assert rep.jump_residual < 1e-15


def test_conditions_phase_free_point():
    rep = ds.dark_conditions_double(SystemParams(gamma=1.0, chi=1.0))
    assert rep.condition_flags["phase_free"]
    assert rep.condition_flags["e_matches"]
    assert rep.required_E == 0j
    assert rep.dark_residual == 0.0


# ---------------------------------------------------------------- stationary mixture


def test_analytic_mixture_symmetric_point(dark_point):
    ana = ds.analytic_dark_rho(dark_point)
    gd = 0.5 ** 2  # g^2 + delta^2
    pumped = 2 * 0.01 ** 2
    assert ana.rho_11 == pytest.approx(gd / (gd + pumped), rel=1e-14)
    assert ana.rho_phiphi == pytest.approx(pumped / (gd + pumped), rel=1e-14)
    assert ana.rho_phiphi == pytest.approx(7.993605115907275e-4, abs=1e-16)
    assert ana.rho_1phi == pytest.approx(-0.028261661917927564 + 0j, abs=1e-15)
    assert ana.purity == pytest.approx(1.0, abs=1e-14)


def test_analytic_mixture_matches_truncated_numerics():
    p = SystemParams(gamma=1.0, chi=1.0, delta_c=1.0, delta_a=-1.0,
                     omega_c=0.01, omega_a=0.01, e_mag=2e-4,
                     phi_d=-math.pi / 2)
    ana = ds.analytic_dark_rho(p)
    rho5 = trunc.truncated_steady(trunc.from_system(p))
    assert rho5[0, 0].real == pytest.approx(ana.rho_11, abs=1e-9)
    assert rho5[2, 2].real == pytest.approx(ana.rho_phiphi, abs=1e-9)
    assert rho5[0, 2] == pytest.approx(ana.rho_1phi, abs=1e-8)


def test_analytic_mixture_refuses_broken_conditions(dark_point):
    with pytest.raises(ds.DarkStateError):
        ds.analytic_dark_rho(replace(dark_point, omega_a=0.02))
    with pytest.raises(ds.DarkStateError):
        ds.analytic_dark_rho(replace(dark_point, gamma=2.0))
    with pytest.raises(ds.DarkStateError):
        ds.analytic_dark_rho(replace(dark_point, e_mag=1e-3))


def test_analytic_mixture_undriven_ground():
    ana = ds.analytic_dark_rho(SystemParams(gamma=1.0, chi=1.0))
    assert ana.rho_11 == 1.0
    assert ana.rho_phiphi == 0.0
    assert ana.rho_1phi == 0j


# ---------------------------------------------------------------- pump interference


def test_interference_rates_cancel_bitwise(dark_point):
    ratio, required = ds.dfs_requirements_double(dark_point)
    tuned = replace(dark_point, e_mag=abs(required), phi_d=cmath.phase(required))
    r_xi, r_zeta = ds.interference_rates(tuned, 1.0 + 0j, ratio)
    assert r_xi == 0
    assert r_zeta == 0


def test_interference_rates_near_zero_at_nominal_pump(dark_point):
    ratio, _ = ds.dfs_requirements_double(dark_point)
    r_xi, r_zeta = ds.interference_rates(dark_point, 1.0 + 0j, ratio)
    assert abs(r_xi) < 1e-18
    assert abs(r_zeta) < 1e-18


def test_interference_rates_chiral_configuration():
    p = SystemParams(gamma=1.0, chi=1.0, delta_c=1.0, delta_a=-1.0,
                     omega_c=0.01, omega_a=0.01)
    ratio, required = ds.dfs_requirements_double(p)
    tuned = replace(p, e_mag=abs(required), phi_d=cmath.phase(required))
    r_xi, r_zeta = ds.interference_rates(tuned, 1.0 + 0j, ratio)
    assert abs(r_xi) < 1e-18
    assert abs(r_zeta) < 1e-18


def test_interference_rates_are_hamiltonian_amplitudes(rng):
    """The closed-form rates equal -i <double| H |state> under balanced drives."""
    for _ in range(4):
        gamma = float(rng.uniform(0.3, 3.0))
        d0 = derive(SystemParams(gamma=gamma))
        scale = float(rng.uniform(0.01, 0.1))
        p = SystemParams(
            gamma=gamma,
            chi=float(rng.uniform(0.0, 1.0)),
            delta_c=float(rng.uniform(-1.0, 1.0)),
            delta_a=float(rng.uniform(-1.0, 1.0)),
            omega_c=d0.w * scale,
            omega_a=d0.u * scale,
            e_mag=float(rng.uniform(0.0, 0.01)),
            phi_d=float(rng.uniform(-math.pi, math.pi)),
        )
        c1 = complex(rng.normal(), rng.normal())
        c_phi = complex(rng.normal(), rng.normal())
        r_xi, r_zeta = ds.interference_rates(p, c1, c_phi)
        h, _ = trunc.truncated_operators(trunc.from_system(p))
        state = np.array([c1, 0.0, c_phi, 0.0, 0.0], dtype=complex)
        hv = h @ state
        assert abs(r_xi - (-1j) * hv[3]) < 1e-15
        assert abs(r_zeta - (-1j) * hv[4]) < 1e-15
