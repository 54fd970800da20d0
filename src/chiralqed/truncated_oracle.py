"""Independent five-state Lindblad oracle in the collective basis.

Dynamics on {|1>, |psi>, |phi>, |xi>, |zeta>} generated by the effective
Hamiltonian built here from the `collective` operators plus a single
bright-polariton dissipator.  The coupling between the single-excitation pair
is a free parameter here, so regimes beyond the physically reachable bound can
be driven directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import collective as coll
from .model import SystemParams, derive, lindblad, pump_field


@dataclass(frozen=True)
class TruncatedParams:
    """Inputs of the five-state model.

    e_field is the complex pair-pump amplitude, as in SystemParams;
    from_system maps a physical parameter set onto these fields.  One
    record may hold a batch of P points: any field but cp may then be a
    (P,) array, and cp one gauge or a list of P.
    """

    g_chi: float | np.ndarray
    gamma_chi: float | np.ndarray
    delta_s: float | np.ndarray
    delta: float | np.ndarray
    omega_c: float | np.ndarray
    omega_a: float | np.ndarray
    e_field: complex | np.ndarray
    cp: coll.Gauges

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


def from_system(
    params: SystemParams, cp: coll.CollectiveParams | None = None, **changes: np.ndarray
) -> TruncatedParams:
    """Physically reachable truncated parameters for a full parameter set.

    Keyword arguments set fields of params, unchecked, to (P,) arrays; the
    result then holds (P,) fields, each element equal to the scalar
    mapping's bit for bit, and a list of P default gauges if the weights
    vary.
    """
    dp = derive(params, **changes)
    if cp is None:
        cp = coll.default_gauge(dp.u, dp.w)
    elif abs(cp.u - dp.u) > 1e-12 or abs(cp.w - dp.w) > 1e-12:
        raise ValueError("cp weights disagree with the rates in params")
    p = {**vars(params), **changes}
    return TruncatedParams(
        g_chi=dp.g_chi,
        gamma_chi=dp.gamma_chi,
        delta_s=dp.delta_s,
        delta=dp.delta,
        omega_c=p["omega_c"],
        omega_a=p["omega_a"],
        e_field=pump_field(p["e_mag"], p["phi_d"]),
        cp=cp,
    )


def _batch(p: TruncatedParams | list[TruncatedParams]) -> TruncatedParams:
    """One record; a list of P becomes a batch with (P,) fields and P gauges."""
    if not isinstance(p, list):
        return p
    columns = {f.name: np.array([getattr(q, f.name) for q in p])
               for f in fields(TruncatedParams) if f.name != "cp"}
    return TruncatedParams(**columns, cp=[q.cp for q in p])


def _column(values: float | np.ndarray) -> np.ndarray:
    """A scalar or (P,) values, shaped to scale a (5, 5) matrix or a (P, 5, 5) stack."""
    return np.asarray(values)[..., np.newaxis, np.newaxis]


def _gauge_terms(cp: coll.Gauges) -> list[np.ndarray]:
    """The operators of truncated_operators that depend on the gauge alone.

    In order: bright B, dark D, B+, D+, D+ D, B+ B, D+ B + B+ D, the squared
    cavity operator C^2 with C = w D + u B, its adjoint, and D+ B - B+ D.
    Each is a 5x5 matrix for one gauge; for a list of P, a (P, 5, 5) stack
    computed once per distinct gauge.
    """
    if isinstance(cp, coll.CollectiveParams):
        gauges, rows, u, w = cp, None, cp.u, cp.w
    else:
        gauges, rows = coll.distinct_gauges(cp)
        u, w = [g.u for g in gauges], [g.w for g in gauges]
    bright, dark = coll.collective_jump_operators(gauges)
    bright_d, dark_d = np.swapaxes(bright.conj(), -1, -2), np.swapaxes(dark.conj(), -1, -2)
    u, w = _column(u), _column(w)
    cavity = w * dark + u * bright  # the bare cavity operator, rotated
    pair = cavity @ cavity
    terms = [
        bright, dark, bright_d, dark_d, dark_d @ dark, bright_d @ bright,
        dark_d @ bright + bright_d @ dark, pair, np.swapaxes(pair.conj(), -1, -2),
        dark_d @ bright - bright_d @ dark,
    ]
    return terms if rows is None else [term[rows] for term in terms]


def truncated_operators(
    p: TruncatedParams | list[TruncatedParams],
) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian h and bright-polariton lowering operator, collective basis.

    One parameter set gives two 5x5 matrices; a batch or a list of P gives
    two (P, 5, 5) stacks, one point per leading index.  The operators that
    depend on the gauge alone are built once per distinct gauge.  The
    bright operator carries no rate: the dissipator's jump is
    sqrt(gamma_chi) times it.
    """
    q = _batch(p)
    bright, dark, bright_d, dark_d, dark_dark, bright_bright, mixing, pair, pair_d, exchange = (
        _gauge_terms(q.cp)
    )
    if isinstance(q.cp, list):  # each point's own weights, as its scalar assembly reads them
        u, w = _column([cp.u for cp in q.cp]), _column([cp.w for cp in q.cp])
    else:
        u, w = _column(q.cp.u), _column(q.cp.w)
    delta, omega_c, omega_a = _column(q.delta), _column(q.omega_c), _column(q.omega_a)
    shift = (u * u - w * w) * delta
    omega_psi = u * omega_c + w * omega_a
    omega_phi = w * omega_c - u * omega_a

    h = (_column(q.delta_s) - shift) * dark_dark
    h = h + (_column(q.delta_s) + shift) * bright_bright
    h = h + (2.0 * u * w * delta) * mixing
    pump = _column(q.e_field).astype(complex)
    h = h + 0.5j * (pump.conj() * pair - pump * pair_d)

    h = h + 1j * (omega_psi * bright + omega_phi * dark)
    h = h - 1j * (omega_psi * bright_d + omega_phi * dark_d)
    h = h + 1j * _column(q.g_chi) * exchange
    return h, np.broadcast_to(bright, h.shape)


def truncated_liouvillian(p: TruncatedParams | list[TruncatedParams]) -> np.ndarray:
    """25x25 generator acting on column-stacked 5x5 density matrices.

    A batch or a list of P parameter sets gives a (P, 25, 25) stack; one set
    is a single generator.
    """
    q = _batch(p)
    h, bright = truncated_operators(q)
    return lindblad(h, [np.sqrt(_column(q.gamma_chi)) * bright])
