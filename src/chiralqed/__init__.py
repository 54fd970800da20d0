"""Steady states, photon statistics, and dark-state analytics for a two-level
atom and a two-photon-pumped cavity chirally coupled through a 1D waveguide."""

from .collective import (
    CollectiveAmplitudes,
    CollectiveParams,
    basis_change_matrix,
    collective_jump_operators,
    collective_rates,
    default_gauge,
    embedding_isometry,
)
from .dark_state import (
    AnalyticDarkRho,
    DarkReport,
    DarkStateError,
    analytic_dark_rho,
    dark_conditions_double,
    dark_conditions_single,
    dfs_requirements_double,
    dfs_state_single,
    interference_rates,
)
from .dynamics import (
    DegenerateSteadyStateError,
    PositivityError,
    evolve,
    steady_state,
)
from .fock_algebra import BasisLabel, FockCutoff, composite_operators
from .model import (
    DerivedParams,
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    build_undriven_liouvillian,
    derive,
)
from .observables import ObservableSet, collect, g2_zero, mean_photon_number, population, purity
from .truncated_oracle import (
    TruncatedParams,
    truncated_liouvillian,
    truncated_operators,
    truncated_steady,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDarkRho",
    "BasisLabel",
    "CollectiveAmplitudes",
    "CollectiveParams",
    "DarkReport",
    "DarkStateError",
    "DegenerateSteadyStateError",
    "DerivedParams",
    "FockCutoff",
    "ObservableSet",
    "PositivityError",
    "SystemParams",
    "TruncatedParams",
    "analytic_dark_rho",
    "basis_change_matrix",
    "build_hamiltonian",
    "build_liouvillian",
    "build_undriven_liouvillian",
    "collect",
    "collective_jump_operators",
    "collective_rates",
    "composite_operators",
    "dark_conditions_double",
    "dark_conditions_single",
    "default_gauge",
    "derive",
    "dfs_requirements_double",
    "dfs_state_single",
    "embedding_isometry",
    "evolve",
    "g2_zero",
    "interference_rates",
    "mean_photon_number",
    "population",
    "purity",
    "steady_state",
    "truncated_liouvillian",
    "truncated_operators",
    "truncated_steady",
]
