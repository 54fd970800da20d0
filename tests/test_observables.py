import math

import numpy as np
import pytest

from chiralqed import collective as coll
from chiralqed import observables as obs
from chiralqed.dynamics import steady_state
from chiralqed.fock_algebra import FockCutoff
from chiralqed.model import SystemParams, build_liouvillian
from chiralqed.truncated_oracle import from_system, truncated_liouvillian

from conftest import product_index, random_density

CUTOFF = FockCutoff(4)


def _pure(atom: str, photons: int) -> np.ndarray:
    rho = np.zeros((CUTOFF.dim, CUTOFF.dim), dtype=complex)
    idx = product_index(atom, photons, CUTOFF)
    rho[idx, idx] = 1.0
    return rho


def test_mean_photon_number_fock_states():
    assert obs.mean_photon_number(_pure("g", 0)) == pytest.approx(0.0)
    assert obs.mean_photon_number(_pure("g", 3)) == pytest.approx(3.0)
    assert obs.mean_photon_number(_pure("e", 2)) == pytest.approx(2.0)


def test_mean_photon_number_rejects_a_dimension_off_the_cutoff():
    # The cutoff is read from rho's size, atom (x) field: an odd size, such
    # as a 5x5 collective-basis state's, fits no cutoff.
    for dim in (5, 7):
        rho = np.eye(dim, dtype=complex) / dim
        for observable in (obs.mean_photon_number, obs.g2_zero):
            with pytest.raises(ValueError, match="atom \\(x\\) field"):
                observable(rho)


def test_g2_single_photon_vanishes():
    assert obs.g2_zero(_pure("g", 1)) == pytest.approx(0.0)


def test_g2_two_photon_fock():
    # <adag adag a a> = 2 and <adag a> = 2, so g2 = 2 / 4
    assert obs.g2_zero(_pure("g", 2)) == pytest.approx(0.5)


def test_g2_undefined_on_vacuum():
    assert obs.g2_zero(_pure("g", 0)) is None
    assert obs.g2_zero(_pure("e", 0)) is None


def test_g2_coherent_state_near_one():
    alpha = 0.3
    cut = FockCutoff(12)
    n = np.arange(cut.fock_dim)
    amps = np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    vec = np.zeros(cut.dim, dtype=complex)
    vec[: cut.fock_dim] = amps
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    assert obs.g2_zero(rho) == pytest.approx(1.0, abs=1e-8)


def test_g2_invariant_under_phase_rotation(rng):
    """Number-conserving rotations cannot change photon statistics."""
    p = SystemParams(gamma=0.9, chi=0.1, omega_c=0.08, e_mag=3e-3)
    rho = steady_state(build_liouvillian(p, CUTOFF))
    base = obs.g2_zero(rho)
    num = np.kron(np.eye(2), np.diag(np.arange(CUTOFF.fock_dim, dtype=float)))
    for theta in rng.uniform(0.0, math.tau, size=4):
        phase = np.diag(np.exp(-1j * theta * np.diag(num)))
        rotated = phase @ rho @ phase.conj().T
        assert obs.g2_zero(rotated) == pytest.approx(base, rel=1e-10)


def test_purity_limits():
    assert obs.purity(_pure("g", 1)) == pytest.approx(1.0)
    dim = CUTOFF.dim
    mixed = np.eye(dim, dtype=complex) / dim
    assert obs.purity(mixed) == pytest.approx(1.0 / dim)


def test_population_complete_basis_sums_to_one(rng):
    p = SystemParams(gamma=1.2, chi=0.4, omega_c=0.05, omega_a=0.02, e_mag=1e-3)
    rho = steady_state(build_liouvillian(p, CUTOFF))
    total = sum(
        rho.diagonal().real[product_index(atom, n, CUTOFF)]
        for atom in ("g", "e")
        for n in range(CUTOFF.fock_dim)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_population_collective_labels_full_space():
    p = SystemParams(gamma=1.0, chi=0.0, omega_c=0.01, omega_a=0.01, e_mag=4e-4)
    cp = from_system(p).cp
    rho = steady_state(build_liouvillian(p, FockCutoff(8)))
    pops = {
        label: obs.population(rho, label, cp=cp)
        for label in ("1", "psi", "phi", "xi", "zeta")
    }
    assert pops["1"] > 0.99
    assert all(v >= -1e-12 for v in pops.values())
    # collective labels on the full space require the gauge
    with pytest.raises(ValueError):
        obs.population(rho, "psi")


def test_population_reads_a_full_space_stack_one_state_at_a_time(rng):
    rho = np.stack([random_density(rng, CUTOFF.dim) for _ in range(2)])
    gauges = [coll.default_gauge(0.6, 0.8), coll.default_gauge(0.8, 0.6)]
    batch = coll.default_gauge(np.array([0.6, 0.8]), np.array([0.8, 0.6]))
    for label in coll.COLLECTIVE_LABELS:
        # One gauge for the whole stack, or a batch of one per state.
        assert obs.population(rho, label, gauges[0]).tolist() == [
            obs.population(state, label, gauges[0]) for state in rho
        ]
        assert obs.population(rho, label, batch).tolist() == [
            obs.population(state, label, gauge) for state, gauge in zip(rho, gauges)
        ]


def test_population_collective_labels_five_space():
    p = SystemParams(gamma=1.0, chi=0.3, omega_c=0.04, omega_a=0.02, e_mag=1e-3)
    rho5 = steady_state(truncated_liouvillian(from_system(p)))
    total = sum(
        obs.population(rho5, label) for label in ("1", "psi", "phi", "xi", "zeta")
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_population_label_validation():
    rho = _pure("g", 0)
    with pytest.raises(ValueError):
        obs.population(rho, "bogus")
    with pytest.raises(ValueError):
        obs.population(rho, 3)


def test_mean_photon_two_routes_agree():
    """Trace against the number operator vs the weighted population sum."""
    p = SystemParams(gamma=0.7, chi=0.2, omega_c=0.06, omega_a=0.03, e_mag=2e-3)
    rho = steady_state(build_liouvillian(p, CUTOFF))
    direct = obs.mean_photon_number(rho)
    summed = sum(
        n * rho.diagonal().real[product_index(atom, n, CUTOFF)]
        for atom in ("g", "e")
        for n in range(CUTOFF.fock_dim)
    )
    assert direct == pytest.approx(summed, abs=1e-12)


def test_trapped_population_degrades_purity():
    """Without the coherent bright/dark coupling the dark state traps weight."""
    p = SystemParams(gamma=1.0, chi=1.0, omega_c=0.05, omega_a=0.0)
    cut = FockCutoff(8)
    rho = steady_state(build_liouvillian(p, cut))
    cp = from_system(p).cp
    assert obs.purity(rho) < 0.9
    assert obs.population(rho, "phi", cp=cp) > 0.1


def test_truncated_cavity_stats_consistent():
    p = SystemParams(gamma=1.0, chi=0.0, delta_c=0.2, delta_a=0.1,
                     omega_c=0.03, omega_a=0.02, e_mag=1e-3)
    tp = from_system(p)
    rho5 = steady_state(truncated_liouvillian(tp))
    mean_n, g2 = obs.truncated_cavity_stats(rho5, tp.cp)
    # same numbers from the embedded product-basis state
    rho_prod = coll.collective_to_product(rho5, tp.cp)
    iso = coll.embedding_isometry(FockCutoff(6))
    embedded = iso @ rho_prod @ iso.conj().T
    assert mean_n == pytest.approx(
        obs.mean_photon_number(embedded), abs=1e-12
    )
    assert g2 == pytest.approx(obs.g2_zero(embedded), rel=1e-10)

