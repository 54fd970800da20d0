"""Analytic dark-state conditions and predicted steady states.

The driven system admits pure stationary states when the bright polariton is
never populated: every drive pathway into it interferes away and the two-photon
pump is balanced against the stepwise route into the double-excitation states.
This module constructs those states, the pump value that realizes the balance,
and numerical residuals quantifying how close an arbitrary parameter set comes.

Exactness note: unit phase factors are built as complex(x, g) / hypot(x, g)
rather than exp(i * atan2(g, x)).  The two agree to rounding, but the division
form is exact at the right angles (for instance x = 0 gives exactly 1j), which
lets the destructive-interference identity hold bitwise at the canonical
operating point instead of merely to 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import truncated_oracle as trunc
from .collective import CollectiveAmplitudes
from .model import DerivedParams, SystemParams, derive

SQRT2 = math.sqrt(2.0)

REL_TOL = 1e-9


class DarkStateError(ValueError):
    """The requested analytic construction does not exist at these parameters."""


def _close(x, y) -> bool:
    """Relative comparison that treats an exact 0 == 0 as equal."""
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _phase_factor(x: float, g: float) -> complex | None:
    """(x + ig)/|x + ig| as an exact unit complex, None when both vanish."""
    hyp = math.hypot(x, g)
    if hyp == 0.0:
        return None
    return complex(x, g) / hyp


@dataclass(frozen=True)
class SingleConditionReport:
    """Scalar conditions for a cleanly driven single-excitation dark state."""

    omega_phi_zero: bool
    shift_zero: bool
    omega_phi_residual: float
    shift_residual: float


@dataclass(frozen=True)
class DarkReport:
    dfs_residual: float
    dark_residual: float
    jump_residual: float
    predicted_state: CollectiveAmplitudes
    required_E: complex | None
    condition_flags: dict[str, bool]


def dfs_state_single(dp: DerivedParams) -> CollectiveAmplitudes:
    """Normalized single-excitation decoherence-free state.

    The bright polariton stays empty when the drive into it is rerouted into
    |phi> by the coherent coupling; the resulting amplitude ratio is
    c_phi / c1 = i * omega_psi * (2uw delta + i g) / ((2uw delta)^2 + g^2).
    """
    if dp.omega_psi == 0.0:
        return CollectiveAmplitudes(c1=1.0 + 0j, c_phi=0j)
    x = 2.0 * dp.u * dp.w * dp.delta
    denom = x * x + dp.g_chi * dp.g_chi
    if denom == 0.0:
        raise DarkStateError(
            "no single-excitation DFS: coupling and detuning both vanish "
            "while the bright drive is on"
        )
    ratio = 1j * dp.omega_psi * complex(x, dp.g_chi) / denom
    norm = math.hypot(1.0, abs(ratio))
    return CollectiveAmplitudes(c1=1.0 / norm + 0j, c_phi=ratio / norm)


def dark_conditions_single(dp: DerivedParams) -> SingleConditionReport:
    """Check that the dark polariton is driven cleanly and sits on resonance."""
    shift = (dp.u * dp.u - dp.w * dp.w) * dp.delta
    omega_scale = math.hypot(dp.omega_psi, dp.omega_phi)
    omega_res = abs(dp.omega_phi)
    shift_res = abs(dp.delta_s - shift)
    return SingleConditionReport(
        omega_phi_zero=omega_res <= REL_TOL * omega_scale,
        shift_zero=shift_res <= REL_TOL * max(abs(dp.delta_s), abs(shift)),
        omega_phi_residual=omega_res,
        shift_residual=shift_res,
    )


def dfs_requirements_double(params: SystemParams) -> tuple[complex, complex]:
    """Amplitude ratio c_phi/c1 and the pump that cancels double-excitation leakage.

    Needs the drives balanced (u omega_c = w omega_a) so the stepwise routes
    out of |phi> interfere; the returned pump is then the value for which the
    direct pair-creation route cancels the remaining stepwise route exactly.
    """
    dp = derive(params)
    lhs = dp.u * params.omega_c
    rhs = dp.w * params.omega_a
    if abs(lhs - rhs) > REL_TOL * max(abs(lhs), abs(rhs)):
        raise DarkStateError("no double-excitation DFS without u*omega_c = w*omega_a")
    if params.omega_c == 0.0:
        return 0j, 0j
    x = 2.0 * dp.u * dp.w * dp.delta
    pf = _phase_factor(x, dp.g_chi)
    if pf is None:
        raise DarkStateError(
            "phase-undefined: coupling and detuning both vanish, "
            "no finite pump keeps the state dark"
        )
    hyp = math.hypot(x, dp.g_chi)
    ratio = (2.0 * dp.u * params.omega_c / hyp) * (1j * pf)
    # Writing required_E as -(2 w omega_c) * ratio (rather than through its
    # own phase factor) makes the interference bracket cancel bitwise.
    required = -(2.0 * dp.w * params.omega_c) * ratio
    return ratio, required


def dark_conditions_double(params: SystemParams) -> DarkReport:
    """Evaluate every scalar dark-state condition and the numerical residuals.

    Off-condition parameter sets come back with False flags and nonzero
    residuals so callers can rank near-dark operating points.  Raises
    ValueError only where a collective rate, such as gamma_chi, overflows.
    """
    dp = derive(params)

    hyp40 = math.hypot(dp.delta, dp.g_chi)
    pf = _phase_factor(2.0 * dp.u * dp.w * dp.delta, dp.g_chi)
    phase_free = pf is None

    flags: dict[str, bool] = {
        "omega_a_equals_omega_c": _close(params.omega_a, params.omega_c),
        "kappa_equals_gamma": _close(1.0, params.gamma),
        "delta_s_zero": abs(dp.delta_s)
        <= REL_TOL * max(abs(params.delta_c), abs(params.delta_a)),
        "phase_free": phase_free,
    }

    required_e: complex | None
    if not phase_free:
        target = (2.0 * params.omega_c**2 / hyp40) * (-1j * pf)
        flags["e_matches"] = _close(params.e_field, target)
        required_e = target
    elif hyp40 > 0.0:
        # Magnitude constraint survives even though the phase is free.
        flags["e_matches"] = _close(params.e_mag, 2.0 * params.omega_c**2 / hyp40)
        required_e = None
    else:
        flags["e_matches"] = params.omega_c == 0.0 and params.e_mag == 0.0
        required_e = 0j if params.omega_c == 0.0 else None

    if params.omega_c != 0.0 and pf is not None:
        ratio = (SQRT2 * params.omega_c / hyp40) * (1j * pf)
        norm = math.hypot(1.0, abs(ratio))
        predicted = CollectiveAmplitudes(c1=1.0 / norm + 0j, c_phi=ratio / norm)
    else:
        predicted = CollectiveAmplitudes(c1=1.0 + 0j, c_phi=0j)

    vec = predicted.as_vector()
    h_eff, bright = trunc.truncated_operators(trunc.from_system(params))
    h_vec = h_eff @ vec
    return DarkReport(
        dfs_residual=float(np.linalg.norm(bright @ h_vec)),
        dark_residual=float(np.linalg.norm(h_vec)),
        jump_residual=float(np.linalg.norm(bright @ vec)),
        predicted_state=predicted,
        required_E=required_e,
        condition_flags=flags,
    )

