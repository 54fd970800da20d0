"""Steady-state observables: photon statistics, purity, populations.

Each observable of one (D, D) state is a float.  The functions also take a
(P, D, D) stack of states and then return a (P,) array; g2 is NaN there
where it is None for one state.  `OBSERVABLES` reads them by name from a
solved stack of either engine, `FullStates` or `FiveStates`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import collective as coll
from .fock_algebra import FockCutoff, composite_operators

MEAN_PHOTON_FLOOR = 1e-14


def _value(value: np.ndarray) -> float | np.ndarray:
    """A float for one state, the (P,) array for a stack."""
    return float(value) if value.ndim == 0 else value


def _trace(product: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a (D, D) or (P, D, D) array."""
    return np.trace(product, axis1=-2, axis2=-1).real


def _ratio(numerator: np.ndarray, n_mean: np.ndarray) -> float | None | np.ndarray:
    """numerator / n_mean^2; None for one state (NaN in a stack) where the
    mean photon number is below MEAN_PHOTON_FLOOR."""
    if n_mean.ndim == 0:
        return None if n_mean < MEAN_PHOTON_FLOOR else float(numerator / (n_mean * n_mean))
    g2 = np.full(n_mean.shape, np.nan)
    above = ~(n_mean < MEAN_PHOTON_FLOOR)
    g2[above] = numerator[above] / (n_mean[above] * n_mean[above])
    return g2


def _cutoff(rho: np.ndarray) -> FockCutoff:
    """The Fock cutoff of a full-space rho, atom (x) field, read from its size."""
    dim = rho.shape[-1]
    if dim % 2 != 0:
        raise ValueError("full-space rho must be atom (x) field")
    return FockCutoff(dim // 2 - 1)


def mean_photon_number(rho: np.ndarray) -> float | np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    a = composite_operators(_cutoff(rho))[0]
    return _value(_trace(a.conj().T @ a @ rho))


def g2_zero(rho: np.ndarray) -> float | None | np.ndarray:
    """Equal-time second-order coherence of the cavity mode.

    Returns None when the mean photon number is below MEAN_PHOTON_FLOOR,
    where the ratio stops being numerically meaningful.
    """
    rho = np.asarray(rho, dtype=complex)
    a = composite_operators(_cutoff(rho))[0]
    n_mean = _trace(a.conj().T @ a @ rho)
    pair = a @ a
    return _ratio(_trace(pair.conj().T @ pair @ rho), n_mean)


def purity(rho: np.ndarray) -> float | np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return _value(_trace(rho @ rho))


def population(
    rho: np.ndarray, label: str, cp: coll.CollectiveParams | None = None
) -> float | np.ndarray:
    """Population of the collective state `label`.

    On a 5x5 collective-basis rho it reads the diagonal directly; on a
    full-space rho it needs the gauge cp to build the state vector v and
    reads v†ρv.  A full-space (P, D, D) stack takes one gauge or a batch of
    P, and is read one state at a time, as one state is: v†ρv cancels large
    entries (for rho_psipsi at the README dark point, entries of about 4e-4
    sum to 1.3e-10), so another summation order would move the value by
    about 4e-10 relative.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1]
    if label not in coll.COLLECTIVE_INDEX:
        raise ValueError(f"unknown collective label {label!r}")
    k = coll.COLLECTIVE_INDEX[label]
    if dim == 5:
        # Already in the collective basis.
        value = rho[..., k, k]
    else:
        if cp is None:
            raise ValueError("collective populations on the full space need cp")
        iso = coll.embedding_isometry(_cutoff(rho))
        stack = rho.shape[:-2]
        unitaries = np.broadcast_to(coll.basis_change_matrix(cp), (*stack, 5, 5))
        values = []
        for state, unitary in zip(rho.reshape(-1, dim, dim), unitaries.reshape(-1, 5, 5)):
            vec = iso @ unitary[:, k]
            values.append(vec.conj() @ state @ vec)
        value = np.array(values).reshape(stack)
    imag = np.ravel(value.imag)
    worst = imag[np.argmax(np.abs(imag))]
    if abs(worst) > 1e-12:
        raise ValueError(f"population of {label!r} has imaginary part {worst:.3e}")
    return _value(value.real)


def truncated_cavity_stats(
    rho_coll: np.ndarray, cp: coll.CollectiveParams
) -> tuple[float | np.ndarray, float | None | np.ndarray]:
    """(mean photon number, g2) for a 5x5 collective-basis state.

    A (P, 5, 5) stack takes one gauge or a batch of P.  Within the
    two-excitation subspace a^2 only connects |g,2> to |g,0>, so the pair
    correlator reduces to twice the |g,2> population.
    """
    rho_prod = coll.collective_to_product(rho_coll, cp)
    a5, _ = coll.product_five_ops()
    n_mean = _trace(a5.conj().T @ a5 @ rho_prod)
    pair = 2.0 * rho_prod[..., 2, 2].real
    return _value(n_mean), _ratio(pair, n_mean)


# ---------------------------------------------------------------------------
# Observables, read the same way from either engine's steady state


def _excited(rho: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """Population of the atom's excited level, trace(sigma+ sigma rho), per state."""
    return np.trace(sm.conj().T @ sm @ rho, axis1=-2, axis2=-1).real


class _States:
    """A solved (P, D, D) stack with one gauge for all of it or a batch of P."""

    def __init__(self, rho: np.ndarray, cp: coll.CollectiveParams):
        self.rho = rho
        self.cp = cp

    def population(self, label: str) -> np.ndarray:
        return population(self.rho, label, self.cp)


class FullStates(_States):
    """Steady states of the full engine, in the atom (x) field space."""

    @functools.cached_property
    def cavity(self) -> tuple[np.ndarray, np.ndarray]:
        return mean_photon_number(self.rho), g2_zero(self.rho)

    def excited(self) -> np.ndarray:
        return _excited(self.rho, composite_operators(_cutoff(self.rho))[1])


class FiveStates(_States):
    """Steady states of the five-state engine, in the collective basis."""

    @functools.cached_property
    def cavity(self) -> tuple[np.ndarray, np.ndarray]:
        return truncated_cavity_stats(self.rho, self.cp)

    def excited(self) -> np.ndarray:
        rho_product = coll.collective_to_product(self.rho, self.cp)
        return _excited(rho_product, coll.product_five_ops()[1])


def _collective(label: str):
    return lambda states: states.population(label)


# Observable name -> its (P,) values on a solved stack; g2 is NaN below the
# mean-photon floor.  |g,0> is the collective ground state "1", so rho_11
# reads it like the polariton populations.
OBSERVABLES = {
    "mean_n": lambda states: states.cavity[0],
    "g2": lambda states: states.cavity[1],
    "purity": lambda states: purity(states.rho),
    "rho_11": _collective("1"),
    "rho_22": lambda states: states.excited(),
    "rho_psipsi": _collective("psi"),
    "rho_phiphi": _collective("phi"),
    "rho_xixi": _collective("xi"),
    "rho_zetazeta": _collective("zeta"),
}
