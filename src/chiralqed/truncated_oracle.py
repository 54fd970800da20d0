"""Independent five-state Lindblad oracle in the collective basis.

Dynamics on {|1>, |psi>, |phi>, |xi>, |zeta>} generated by the effective
Hamiltonian from `collective` plus a single bright-polariton dissipator.
The coupling between the single-excitation pair is a free parameter here,
so regimes beyond the physically reachable bound can be driven directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import collective as coll
from .dynamics import steady_state
from .model import SystemParams, derive, lindblad

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedParams:
    """Inputs of the five-state model.

    e_tilde is the two-photon pump divided by sqrt(2); the property e_field
    undoes that scaling for builders that want the physical amplitude.
    """

    g_chi: float
    gamma_chi: float
    delta_s: float
    delta: float
    omega_c: float
    omega_a: float
    e_tilde: complex
    cp: coll.CollectiveParams

    def __post_init__(self) -> None:
        for name in ("g_chi", "gamma_chi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma_chi < 0:
            raise ValueError("gamma_chi must be nonnegative")

    @property
    def e_field(self) -> complex:
        return SQRT2 * complex(self.e_tilde)


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
        e_tilde=params.e_field / SQRT2,
        cp=cp,
    )


def truncated_liouvillian(p: TruncatedParams | list[TruncatedParams]) -> np.ndarray:
    """25x25 generator acting on column-stacked 5x5 density matrices.

    A list of P parameter sets gives a (P, 25, 25) stack; one set is the
    P = 1 case.  The Hamiltonians and bright jumps are assembled as stacks,
    each distinct gauge rotated once, and passed to one lindblad call.
    """
    ps = p if isinstance(p, list) else [p]
    field = lambda name: np.array([getattr(q, name) for q in ps])
    cps = [q.cp for q in ps]
    jumps = coll.collective_jump_operators(cps)
    h = coll.assemble_effective_hamiltonian(
        cps,
        g_chi=field("g_chi"),
        delta_s=field("delta_s"),
        delta=field("delta"),
        omega_c=field("omega_c"),
        omega_a=field("omega_a"),
        e_field=field("e_field"),
        jumps=jumps,
    )
    bright = np.sqrt(field("gamma_chi"))[:, np.newaxis, np.newaxis] * jumps[0]
    lv = lindblad(h, [bright])
    return lv if isinstance(p, list) else lv[0]


def truncated_steady(p: TruncatedParams) -> np.ndarray:
    """Steady state of the five-state model.

    Raises DegenerateSteadyStateError from `dynamics` when the null space is
    not one dimensional (e.g. no coupling and no drive, where the dark single
    state never empties).
    """
    return steady_state(truncated_liouvillian(p))
