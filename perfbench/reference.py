"""Independent reference for the untimed cross-checks.

The generator is the cascade (jump-operator) form at x_phase = 0: one
collective decay channel u a + w s at rate (1 + chi)(kappa + gamma) plus the
coherent bright/dark coupling g = (1 - chi) sqrt(kappa gamma) / 2.  It is
built from scratch with plain numpy and solved with numpy's dense solver, so
it shares no code with ``chiralqed``; the package's own generator matches it
entrywise to about 1e-15.

Only mean_n, g2 and purity are compared.  rho_22 and x_phase != 0 are left
unchecked on purpose: the package's rho_22 label and its placement-phase
generator are both slated to change by design, and a reference pinned to
today's behaviour would flag those fixes as errors.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerances of the comparison.  The two sides agree to about 1e-12
# on the benchmark's ranges; g2 is a ratio of two small moments at weak drive
# and gets the looser bound.
RTOL = {"mean_n": 1e-8, "g2": 1e-6, "purity": 1e-10}


def _ladder(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, levels)), k=1).astype(complex)


def operators(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cavity lowering a and atom lowering s on atom (x) field."""
    nf = n_max + 1
    lower_atom = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return np.kron(np.eye(2), _ladder(nf)), np.kron(lower_atom, np.eye(nf))


def cascade_generator(system: dict[str, float], n_max: int) -> np.ndarray:
    """Column-stacked generator of the x_phase = 0 cascade master equation."""
    if system.get("x_phase", 0.0) != 0.0:
        raise ValueError("the reference covers x_phase = 0 only")
    kappa, gamma, chi = 1.0, system["gamma"], system["chi"]
    delta_c = system["delta_s"] + system["delta"]
    delta_a = system["delta_s"] - system["delta"]
    pump = system["e_mag"] * np.exp(1j * system["phi_d"])
    a, s = operators(n_max)
    ad, sd = a.conj().T, s.conj().T

    h = delta_c * ad @ a + delta_a * sd @ s
    h += 0.5j * (np.conj(pump) * a @ a - pump * ad @ ad)
    h += 1j * (system["omega_c"] * (a - ad) + system["omega_a"] * (s - sd))
    h += 0.5j * (1.0 - chi) * math.sqrt(kappa * gamma) * (ad @ s - sd @ a)

    total = kappa + gamma
    jump = math.sqrt(kappa / total) * a + math.sqrt(gamma / total) * s
    rate = (1.0 + chi) * total
    eye = np.eye(h.shape[0])
    jdj = jump.conj().T @ jump
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            + rate * (np.kron(jump.conj(), jump)
                      - 0.5 * np.kron(eye, jdj) - 0.5 * np.kron(jdj.T, eye)))


def steady_observables(system: dict[str, float], n_max: int) -> dict[str, float]:
    """mean_n, g2 and purity of the reference steady state."""
    lv = cascade_generator(system, n_max)
    dim = math.isqrt(lv.shape[0])
    constrained = lv.copy()
    constrained[0, :] = np.eye(dim).flatten(order="F")
    rhs = np.zeros(lv.shape[0], dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(constrained, rhs).reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    a, _ = operators(n_max)
    number = a.conj().T @ a
    mean_n = float(np.trace(number @ rho).real)
    pair = float(np.trace(a.conj().T @ number @ a @ rho).real)
    return {"mean_n": mean_n, "g2": pair / mean_n**2, "purity": float(np.trace(rho @ rho).real)}


def mismatches(expected: dict[str, float], got: dict[str, float]) -> list[str]:
    """Names whose values differ beyond RTOL, with both values."""
    return [f"{name}: benchmark reference {expected[name]!r}, program {got[name]!r}"
            for name, rtol in RTOL.items()
            if not abs(got[name] - expected[name]) <= rtol * abs(expected[name])]

