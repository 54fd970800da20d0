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
from .fock_algebra import BasisLabel, FockCutoff, annihilation, composite_operators, label_to_index
from .model import SystemParams

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


def _cavity_number_ops(rho: np.ndarray, cutoff: FockCutoff):
    """The cavity annihilator on rho's space: atom (x) field, or the bare field."""
    dim = rho.shape[-1]
    if dim == cutoff.dim:
        return composite_operators(cutoff)[0]
    if dim == cutoff.fock_dim:
        return annihilation(cutoff)
    raise ValueError(f"cutoff dimension {cutoff.dim} does not match rho ({dim})")


def mean_photon_number(rho: np.ndarray, cutoff: FockCutoff) -> float | np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    a = _cavity_number_ops(rho, cutoff)
    return _value(_trace(a.conj().T @ a @ rho))


def g2_zero(rho: np.ndarray, cutoff: FockCutoff) -> float | None | np.ndarray:
    """Equal-time second-order coherence of the cavity mode.

    Returns None when the mean photon number is below MEAN_PHOTON_FLOOR,
    where the ratio stops being numerically meaningful.
    """
    rho = np.asarray(rho, dtype=complex)
    a = _cavity_number_ops(rho, cutoff)
    n_mean = _trace(a.conj().T @ a @ rho)
    pair = a @ a
    return _ratio(_trace(pair.conj().T @ pair @ rho), n_mean)


def purity(rho: np.ndarray) -> float | np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return _value(_trace(rho @ rho))


def population(
    rho: np.ndarray,
    label: BasisLabel | str,
    cp: coll.CollectiveParams | None = None,
) -> float | np.ndarray:
    """Population of a product state (BasisLabel) or collective state (str label).

    Collective labels on a full-space rho need cp to build the embedding; on a
    5x5 collective-basis rho they read the diagonal directly.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1]
    if isinstance(label, BasisLabel):
        if dim % 2 != 0:
            raise ValueError("product-state populations need the full atom (x) field space")
        cutoff = FockCutoff(dim // 2 - 1)
        idx = label_to_index(label, cutoff)
        value = rho[..., idx, idx]
    elif isinstance(label, str):
        if label not in coll.COLLECTIVE_INDEX:
            raise ValueError(f"unknown collective label {label!r}")
        k = coll.COLLECTIVE_INDEX[label]
        if dim == 5:
            # Already in the collective basis.
            value = rho[..., k, k]
        else:
            if cp is None:
                raise ValueError("collective populations on the full space need cp")
            if dim % 2 != 0:
                raise ValueError("full-space rho must be atom (x) field")
            cutoff = FockCutoff(dim // 2 - 1)
            vec = coll.collective_state_vector(label, cp, cutoff)
            value = vec.conj() @ rho @ vec
    else:
        raise TypeError(f"label must be BasisLabel or str, got {type(label).__name__}")
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


class FullStates:
    """Steady states of the full engine at a Fock cutoff, a (P, D, D) stack."""

    def __init__(self, rho: np.ndarray, cutoff: FockCutoff, params: list[SystemParams]):
        self.rho = rho
        self._cutoff = cutoff
        self._params = params

    @functools.cached_property
    def cavity(self) -> tuple[np.ndarray, np.ndarray]:
        return mean_photon_number(self.rho, self._cutoff), g2_zero(self.rho, self._cutoff)

    def excited(self) -> np.ndarray:
        return _excited(self.rho, composite_operators(self._cutoff)[1])

    def population(self, label: str) -> np.ndarray:
        """v†ρv of the collective state `label`, per point.

        The product cancels large entries: for rho_psipsi at the README dark
        point, entries of about 4e-4 sum to 1.3e-10, so the value carries
        about 4e-10 relative rounding noise.
        """
        # Each point has the gauge of its own rates.
        return np.array([
            population(rho, label, coll.from_system(params))
            for rho, params in zip(self.rho, self._params)
        ])


class FiveStates:
    """Steady states of the five-state engine, a (P, 5, 5) collective-basis
    stack, with one gauge for all of them or a batch of P."""

    def __init__(self, rho: np.ndarray, cp: coll.CollectiveParams):
        self.rho = rho
        self.cp = cp

    @functools.cached_property
    def cavity(self) -> tuple[np.ndarray, np.ndarray]:
        return truncated_cavity_stats(self.rho, self.cp)

    def excited(self) -> np.ndarray:
        rho_product = coll.collective_to_product(self.rho, self.cp)
        return _excited(rho_product, coll.product_five_ops()[1])

    def population(self, label: str) -> np.ndarray:
        return population(self.rho, label)


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
