"""End-to-end acceptance checks for the steady-state physics.

Each test prints exactly one ``[PASS]``/``[FAIL]`` verdict line (run pytest
with ``-s`` to see all nine) before asserting, so a red criterion is visible
both in the line and as a test failure.  Three clauses are known to fail for
a structural reason rather than a bug, and stay red on purpose: with fully
directional coupling the cavity's reduced dynamics closes on itself, which
pins g2(0) near 32*(omega_c/kappa)^2 instead of zero and makes it
independent of the atomic rate.  The README walks through the argument.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from chiralqed import collective as coll
from chiralqed import dark_state as ds
from chiralqed import truncated_oracle as trunc
from chiralqed.dynamics import steady_state, vectorize
from chiralqed.fock_algebra import FockCutoff
from chiralqed.model import SystemParams, build_liouvillian
from chiralqed.observables import g2_zero, population, purity
from conftest import (
    analytic_dark_rho,
    devectorize,
    interference_rates,
    project_liouvillian_to_block,
    random_hermitian,
)

CUTOFF = FockCutoff(8)

# Interference point: balanced drives, matched pair pump, no detuning.
CANONICAL = SystemParams(
    gamma=1.0,
    chi=0.0,
    omega_c=0.01,
    omega_a=0.01,
    e_mag=4e-4,
    phi_d=0.0,
)


def _steady(params: SystemParams) -> np.ndarray:
    return steady_state(build_liouvillian(params, CUTOFF))


def _g2(params: SystemParams) -> float:
    value = g2_zero(_steady(params))
    assert value is not None
    return value


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_interference_point_state():
    rho = _steady(CANONICAL)
    cp = trunc.from_system(CANONICAL).cp
    g2 = g2_zero(rho)
    pur = purity(rho)
    predicted = analytic_dark_rho(CANONICAL)
    states = coll.embedding_isometry(CUTOFF) @ coll.basis_change_matrix(cp)
    ground, antisym = (states[:, coll.COLLECTIVE_INDEX[label]] for label in ("1", "phi"))
    errs = (
        abs(population(rho, "1", cp) - predicted.rho_11),
        abs(population(rho, "phi", cp) - predicted.rho_phiphi),
        abs(complex(ground.conj() @ rho @ antisym) - predicted.rho_1phi),
    )
    ok_g2 = g2 < 1e-4
    ok_purity = pur > 1.0 - 1e-6
    ok_match = max(errs) < 1e-6
    _verdict(
        1,
        ok_g2 and ok_purity and ok_match,
        f"g2={g2:.3e} (<1e-4 required), purity deficit={1.0 - pur:.1e} "
        f"(<1e-6 required), worst closed-form mismatch={max(errs):.1e} "
        f"(<1e-6 required)",
    )
    assert ok_purity
    assert ok_match
    # Known red: the pump cancels pair emission exactly, but a third drive
    # photon refills n=2 through n=3 at this order, leaving a floor of about
    # 32*(omega_c/kappa)^2 = 3.2e-3.
    assert ok_g2


def test_criterion_2_pump_phase_sweep_symmetric_coupling():
    def phase_sweep(e_mag: float, grid: np.ndarray) -> np.ndarray:
        values = []
        for phi in grid:
            p = SystemParams(
                gamma=1.0,
                chi=1.0,
                delta_c=1.0,
                delta_a=-1.0,
                omega_c=0.01,
                omega_a=0.01,
                e_mag=e_mag,
                phi_d=float(phi),
            )
            values.append(_g2(p))
        return np.asarray(values)

    grid = np.linspace(-math.pi, math.pi, 201)
    step = grid[1] - grid[0]
    matched = phase_sweep(2e-4, grid)
    k = int(np.argmin(matched))
    ok = abs(grid[k] - (-math.pi / 2)) <= step * (1 + 1e-9)
    # The figure caption suggests the same pump magnitude as the chi=0 case
    # (twice as large); a coarse sweep shows it produces no dip at all, so
    # the detuning-matched magnitude 2*omega_c^2/kappa is the right one.
    doubled = phase_sweep(4e-4, np.linspace(-math.pi, math.pi, 41))
    _verdict(
        2,
        ok,
        f"argmin at phi_d={grid[k]:+.6f} (target -pi/2, step {step:.4f}), "
        f"min g2={matched[k]:.3e}; doubled pump never dips "
        f"(min {doubled.min():.3f}), so the matched magnitude wins",
    )
    assert ok


def test_criterion_3_detuning_dip_depth_and_drive_scaling():
    grid = np.linspace(-1.0, 1.0, 41)
    curves = {}
    for omega in (0.01, 0.05):
        values = []
        for d in grid:
            p = SystemParams(
                gamma=1.0,
                chi=0.0,
                delta_c=float(d),
                delta_a=float(d),
                omega_c=omega,
                omega_a=omega,
                e_mag=4.0 * omega * omega,
                phi_d=0.0,
            )
            values.append(_g2(p))
        curves[omega] = np.asarray(values)
    center = int(np.argmin(np.abs(grid)))
    mins = {om: float(v.min()) for om, v in curves.items()}
    ok_location = all(int(np.argmin(v)) == center for v in curves.values())
    ok_depth = all(v < 1e-3 for v in mins.values())
    spread = float(
        np.max(
            np.abs(curves[0.05] - curves[0.01])
            / np.maximum(curves[0.05], curves[0.01])
        )
    )
    ok_spread = spread < 0.05
    _verdict(
        3,
        ok_location and ok_depth and ok_spread,
        f"minima on resonance: {ok_location}; depths "
        f"{mins[0.01]:.2e}/{mins[0.05]:.2e} (<1e-3 required); relative "
        f"spread between drives {spread:.2f} (<0.05 required)",
    )
    assert ok_location
    # Known red: the dip floor scales as 32*(omega_c/kappa)^2, so it misses
    # 1e-3 at both drives and the two curves separate by that same factor.
    assert ok_depth and ok_spread


def test_criterion_4_atom_rate_sweep_dip():
    grid = np.linspace(0.25, 4.0, 16)
    values = np.asarray(
        [_g2(replace(CANONICAL, gamma=float(g))) for g in grid]
    )
    k = int(np.argmin(values))
    target = int(np.argmin(np.abs(grid - 1.0)))
    flatness = float(values.max() - values.min())
    ok = k == target and values[k] < 1e-3
    _verdict(
        4,
        ok,
        f"g2 flat to {flatness:.1e} across gamma in [0.25, 4] "
        f"(argmin index {k}, resonant index {target}, "
        f"min {values[k]:.3e}, <1e-3 required)",
    )
    # Known red: with fully directional coupling the cavity never hears the
    # atom, so the curve is flat at the criterion-1 floor and the argmin
    # lands on solver noise instead of gamma=kappa.
    assert ok


def test_criterion_5_atom_excited_population_strong_drive():
    p = replace(CANONICAL, omega_c=0.09, omega_a=0.09, e_mag=4.0 * 0.09**2)
    rho = _steady(p)
    nf = CUTOFF.fock_dim
    excited = float(np.real(sum(rho[i, i] for i in range(nf, 2 * nf))))
    ok = abs(excited - 0.03) <= 0.01
    _verdict(
        5,
        ok,
        f"atomic excited-level population {excited:.5f} (0.03 +/- 0.01 required)",
    )
    assert ok


def test_criterion_6_bright_population_vanishes_on_resonance():
    worst = 0.0
    for omega in (0.02, 0.04):
        for delta in (0.0, 5.0):
            base = SystemParams(
                gamma=1.0,
                delta_c=delta,
                delta_a=-delta,
                omega_c=omega,
                omega_a=omega,
            )
            tp = replace(trunc.from_system(base), g_chi=5.0, gamma_chi=2.0)
            rho5 = steady_state(trunc.truncated_liouvillian(tp))
            worst = max(worst, float(rho5[1, 1].real))
    ok = worst < 1e-8
    _verdict(
        6,
        ok,
        f"max symmetric-state population {worst:.2e} over four "
        f"drive/detuning combinations (<1e-8 required)",
    )
    assert ok


def test_criterion_7_five_state_model_vs_full_engine():
    rho = _steady(CANONICAL)
    cp = trunc.from_system(CANONICAL).cp
    iso = coll.embedding_isometry(CUTOFF)
    block = iso.conj().T @ rho @ iso
    rho5 = coll.collective_to_product(
        steady_state(trunc.truncated_liouvillian(trunc.from_system(CANONICAL))), cp
    )
    distance = float(np.linalg.norm(block - rho5))
    populations = np.real(np.diag(rho))
    retained = {0, 1, 2, CUTOFF.fock_dim, CUTOFF.fock_dim + 1}
    leaked = float(
        sum(populations[i] for i in range(CUTOFF.dim) if i not in retained)
    )
    ok = distance < 1e-5 and leaked < 1e-8
    _verdict(
        7,
        ok,
        f"Frobenius distance {distance:.3e} (<1e-5 required), population "
        f"above two excitations {leaked:.3e} (<1e-8 required)",
    )
    assert ok


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(20240816)
    generic = SystemParams(
        gamma=0.9,
        chi=0.25,
        delta_c=0.3,
        delta_a=-0.2,
        omega_c=0.05,
        omega_a=0.03,
        e_mag=2e-3,
        phi_d=0.4,
    )
    small = FockCutoff(3)
    lv = build_liouvillian(generic, small)
    worst_trace = max(
        abs(np.trace(devectorize(lv @ vectorize(random_hermitian(rng, small.dim)))))
        for _ in range(100)
    )

    rho = _steady(CANONICAL)
    hermiticity = float(np.linalg.norm(rho - rho.conj().T))
    lowest_eig = float(np.linalg.eigvalsh(rho).min())

    worst_unitarity = 0.0
    worst_transcription = 0.0
    cp0 = trunc.from_system(CANONICAL).cp
    cp_generic = trunc.from_system(generic).cp
    sqrt2 = math.sqrt(2.0)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0 * math.pi)
        cp = coll.CollectiveParams(
            cp_generic.u, cp_generic.w, math.cos(t), math.sin(t)
        )
        basis = coll.basis_change_matrix(cp)
        worst_unitarity = max(
            worst_unitarity,
            float(np.linalg.norm(basis.conj().T @ basis - np.eye(5))),
        )
        h5, _ = trunc.truncated_operators(replace(trunc.from_system(generic), cp=cp))
        u, w, al, be = cp.u, cp.w, cp.alpha, cp.beta
        oc, oa = generic.omega_c, generic.omega_a
        expected = {
            (1, 3): (sqrt2 * u * al + w * be) * oc + u * be * oa,
            (1, 4): (sqrt2 * u * be - w * al) * oc - u * al * oa,
            (2, 3): (sqrt2 * w * al - u * be) * oc + w * be * oa,
            (2, 4): (sqrt2 * w * be + u * al) * oc - w * al * oa,
        }
        worst_transcription = max(
            worst_transcription,
            max(abs(h5[idx] - 1j * val) for idx, val in expected.items()),
        )

    worst_gauge = 0.0
    reference = coll.collective_to_product(
        steady_state(trunc.truncated_liouvillian(trunc.from_system(CANONICAL))), cp0
    )
    for _ in range(3):
        t = rng.uniform(0.1, 1.4)
        cp = coll.CollectiveParams(cp0.u, cp0.w, math.cos(t), math.sin(t))
        tp = replace(trunc.from_system(CANONICAL), cp=cp)
        alt = coll.collective_to_product(steady_state(trunc.truncated_liouvillian(tp)), cp)
        worst_gauge = max(worst_gauge, float(np.linalg.norm(reference - alt)))

    report = ds.dark_conditions_double(CANONICAL)
    state = report.predicted_state.as_vector()
    jump, _ = coll.collective_jump_operators(cp0)
    h5_canonical, _ = trunc.truncated_operators(trunc.from_system(CANONICAL))
    jump_norm = float(np.linalg.norm(jump @ state))
    hamiltonian_norm = float(np.linalg.norm(h5_canonical @ state))

    ratio, required = ds.dfs_requirements_double(CANONICAL)
    tuned = replace(
        CANONICAL, e_mag=abs(required), phi_d=cmath.phase(required)
    )
    rate_xi, rate_zeta = interference_rates(tuned, 1.0 + 0j, ratio)

    lv_zero = build_liouvillian(generic, small)
    periodic = all(
        np.array_equal(
            lv_zero.toarray(),
            build_liouvillian(
                replace(generic, x_phase=2.0 * math.pi * m), small
            ).toarray(),
        )
        for m in (1, -2)
    )

    checks = {
        "trace": worst_trace < 1e-12,
        "steady": hermiticity < 1e-12 and lowest_eig > -1e-12,
        "unitarity": worst_unitarity < 1e-12,
        "gauge": worst_gauge < 1e-10,
        "stationary-state norms": jump_norm < 1e-12 and hamiltonian_norm < 1e-12,
        "interference": rate_xi == 0 and rate_zeta == 0,
        "drive transcription": worst_transcription < 1e-12,
        "placement periodicity": periodic,
    }
    ok = all(checks.values())
    failed = sorted(name for name, passed in checks.items() if not passed)
    _verdict(
        8,
        ok,
        (
            f"trace wobble {worst_trace:.1e}, hermiticity {hermiticity:.1e}, "
            f"min eigenvalue {lowest_eig:+.1e}, unitarity {worst_unitarity:.1e}, "
            f"gauge spread {worst_gauge:.1e}, decay/coherent norms "
            f"{jump_norm:.1e}/{hamiltonian_norm:.1e}, interference exactly "
            f"zero {checks['interference']}, transcription "
            f"{worst_transcription:.1e}, placement periodicity exact"
        )
        if ok
        else f"failed invariants: {failed}",
    )
    assert ok, failed


def test_criterion_9_collective_generator_matches_projection():
    p = SystemParams(
        gamma=0.8,
        chi=0.3,
        delta_c=0.5,
        delta_a=-0.3,
        omega_c=0.04,
        omega_a=0.03,
        e_mag=2e-3,
        phi_d=0.8,
    )
    cutoff = FockCutoff(6)
    cp = trunc.from_system(p).cp
    lv5 = trunc.truncated_liouvillian(trunc.from_system(p))
    projected = project_liouvillian_to_block(
        build_liouvillian(p, cutoff), cp, cutoff
    )
    diff = float(np.max(np.abs(lv5 - projected)))
    ok = diff < 1e-12
    _verdict(
        9,
        ok,
        f"largest entrywise difference {diff:.3e} (<1e-12 required; the "
        f"decay operator preserves the retained block, so projection is "
        f"exact, not approximate)",
    )
    assert ok
