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
from .model import SystemParams, derive, lindblad, pump_field


@dataclass(frozen=True)
class TruncatedParams:
    """Inputs of the five-state model.

    e_field is the complex pair-pump amplitude, as in SystemParams;
    from_system maps a physical parameter set onto these fields.  One
    record may hold a batch of P points: any field may then be a (P,)
    array, and cp one gauge or a batch of P.
    """

    g_chi: float | np.ndarray
    gamma_chi: float | np.ndarray
    delta_s: float | np.ndarray
    delta: float | np.ndarray
    omega_c: float | np.ndarray
    omega_a: float | np.ndarray
    e_field: complex | np.ndarray
    cp: coll.CollectiveParams

    def __post_init__(self) -> None:
        # abs(x) < inf is false for nan and both infinities, for floats and arrays alike.
        valid = (abs(self.g_chi) < math.inf) & (abs(self.gamma_chi) < math.inf)
        invalid = np.logical_not(valid & (self.gamma_chi >= 0))
        if not np.count_nonzero(invalid):
            return
        # A batch reports its first invalid point, as that point would alone.
        k = np.flatnonzero(invalid)[0]
        for name in ("g_chi", "gamma_chi"):
            value = np.broadcast_to(getattr(self, name), invalid.shape).flat[k].item()
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        raise ValueError("gamma_chi must be nonnegative")


def from_system(params: SystemParams, **changes: np.ndarray) -> TruncatedParams:
    """Physically reachable truncated parameters, in the default gauge, for a
    full parameter set.

    Keyword arguments set fields of params, unchecked, to (P,) arrays; the
    result then holds (P,) fields, each element equal to the scalar
    mapping's bit for bit, and a batch of P default gauges if the weights
    vary.
    """
    dp = derive(params, **changes)
    p = {**vars(params), **changes}
    return TruncatedParams(
        g_chi=dp.g_chi,
        gamma_chi=dp.gamma_chi,
        delta_s=dp.delta_s,
        delta=dp.delta,
        omega_c=p["omega_c"],
        omega_a=p["omega_a"],
        e_field=pump_field(p["e_mag"], p["phi_d"]),
        cp=coll.default_gauge(dp.u, dp.w),
    )


def _column(values: float | np.ndarray) -> np.ndarray:
    """A scalar or (P,) values, shaped to scale a (5, 5) matrix or a (P, 5, 5) stack."""
    return np.asarray(values)[..., np.newaxis, np.newaxis]


def truncated_operators(p: TruncatedParams) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian h and bright-polariton lowering operator, collective basis.

    One parameter set gives two 5x5 matrices; a batch of P gives two
    (P, 5, 5) stacks, one point per leading index.  The bright operator
    carries no rate: the dissipator's jump is sqrt(gamma_chi) times it.
    """
    bright, dark = coll.collective_jump_operators(p.cp)
    bright_d, dark_d = np.swapaxes(bright.conj(), -1, -2), np.swapaxes(dark.conj(), -1, -2)
    u, w = _column(p.cp.u), _column(p.cp.w)
    cavity = w * dark + u * bright  # the bare cavity operator, rotated
    pair = cavity @ cavity
    delta, omega_c, omega_a = _column(p.delta), _column(p.omega_c), _column(p.omega_a)
    shift = (u * u - w * w) * delta
    omega_psi = u * omega_c + w * omega_a
    omega_phi = w * omega_c - u * omega_a

    h = (_column(p.delta_s) - shift) * (dark_d @ dark)
    h = h + (_column(p.delta_s) + shift) * (bright_d @ bright)
    h = h + (2.0 * u * w * delta) * (dark_d @ bright + bright_d @ dark)
    pump = _column(p.e_field).astype(complex)
    h = h + 0.5j * (pump.conj() * pair - pump * np.swapaxes(pair.conj(), -1, -2))

    h = h + 1j * (omega_psi * bright + omega_phi * dark)
    h = h - 1j * (omega_psi * bright_d + omega_phi * dark_d)
    h = h + 1j * _column(p.g_chi) * (dark_d @ bright - bright_d @ dark)
    return h, np.broadcast_to(bright, h.shape)


def truncated_liouvillian(p: TruncatedParams) -> np.ndarray:
    """25x25 generator acting on column-stacked 5x5 density matrices.

    A batch of P parameter sets gives a (P, 25, 25) stack; one set is a
    single generator.
    """
    h, bright = truncated_operators(p)
    return lindblad(h, [np.sqrt(_column(p.gamma_chi)) * bright])
