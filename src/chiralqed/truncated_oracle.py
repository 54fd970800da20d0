"""Independent five-state Lindblad oracle in the collective basis.

Dynamics on {|1>, |psi>, |phi>, |xi>, |zeta>} generated by the effective
Hamiltonian built here from the `collective` operators plus a single
bright-polariton dissipator.  The coupling between the single-excitation pair
is a free parameter here, so regimes beyond the physically reachable bound can
be driven directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import collective as coll
from .model import SystemParams, derive, lindblad


@dataclass(frozen=True)
class TruncatedParams:
    """Inputs of the five-state model.

    e_field is the complex pair-pump amplitude, as in SystemParams;
    from_system maps a physical parameter set onto these fields.
    """

    g_chi: float
    gamma_chi: float
    delta_s: float
    delta: float
    omega_c: float
    omega_a: float
    e_field: complex
    cp: coll.CollectiveParams

    def __post_init__(self) -> None:
        for name in ("g_chi", "gamma_chi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma_chi < 0:
            raise ValueError("gamma_chi must be nonnegative")


def from_system(
    params: SystemParams, cp: coll.CollectiveParams | None = None
) -> TruncatedParams:
    """Physically reachable truncated parameters for a full parameter set."""
    dp = derive(params)
    if cp is None:
        cp = coll.default_gauge(dp.u, dp.w)
    elif abs(cp.u - dp.u) > 1e-12 or abs(cp.w - dp.w) > 1e-12:
        raise ValueError("cp weights disagree with the rates in params")
    return TruncatedParams(
        g_chi=dp.g_chi,
        gamma_chi=dp.gamma_chi,
        delta_s=dp.delta_s,
        delta=dp.delta,
        omega_c=params.omega_c,
        omega_a=params.omega_a,
        e_field=params.e_field,
        cp=cp,
    )


def _column(values: list) -> np.ndarray:
    """P scalars, shaped to scale a (P, 5, 5) stack."""
    return np.array(values)[:, np.newaxis, np.newaxis]


def truncated_operators(
    p: TruncatedParams | list[TruncatedParams],
) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian h and bright-polariton lowering operator, collective basis.

    One parameter set gives two 5x5 matrices; a list of P gives two
    (P, 5, 5) stacks, one point per leading index, with the operators of
    each distinct gauge rotated once.  The bright operator carries no rate:
    the dissipator's jump is sqrt(gamma_chi) times it.
    """
    ps = p if isinstance(p, list) else [p]
    field = lambda name: _column([getattr(q, name) for q in ps])
    cps = [q.cp for q in ps]
    bright, dark = coll.collective_jump_operators(cps)
    bright_d = np.swapaxes(bright.conj(), -1, -2)
    dark_d = np.swapaxes(dark.conj(), -1, -2)
    u, w = _column([cp.u for cp in cps]), _column([cp.w for cp in cps])
    delta, omega_c, omega_a = field("delta"), field("omega_c"), field("omega_a")
    shift = (u * u - w * w) * delta
    omega_psi = u * omega_c + w * omega_a
    omega_phi = w * omega_c - u * omega_a

    h = (field("delta_s") - shift) * (dark_d @ dark)
    h = h + (field("delta_s") + shift) * (bright_d @ bright)
    h = h + (2.0 * u * w * delta) * (dark_d @ bright + bright_d @ dark)

    cavity = w * dark + u * bright  # the bare cavity operator, rotated
    pump = field("e_field").astype(complex)
    pair = cavity @ cavity
    h = h + 0.5j * (pump.conj() * pair - pump * np.swapaxes(pair.conj(), -1, -2))

    h = h + 1j * (omega_psi * bright + omega_phi * dark)
    h = h - 1j * (omega_psi * bright_d + omega_phi * dark_d)
    h = h + 1j * field("g_chi") * (dark_d @ bright - bright_d @ dark)
    return (h, bright) if isinstance(p, list) else (h[0], bright[0])


def truncated_liouvillian(p: TruncatedParams | list[TruncatedParams]) -> np.ndarray:
    """25x25 generator acting on column-stacked 5x5 density matrices.

    A list of P parameter sets gives a (P, 25, 25) stack; one set is the
    P = 1 case.
    """
    ps = p if isinstance(p, list) else [p]
    h, bright = truncated_operators(ps)
    lv = lindblad(h, [np.sqrt(_column([q.gamma_chi for q in ps])) * bright])
    return lv if isinstance(p, list) else lv[0]

