"""Steady states, photon statistics, and dark-state analytics for a two-level
atom and a two-photon-pumped cavity chirally coupled through a 1D waveguide."""

from .collective import (
    CollectiveAmplitudes,
    CollectiveParams,
    basis_change_matrix,
    collective_jump_operators,
    default_gauge,
    embedding_isometry,
)
from .dark_state import (
    DarkReport,
    DarkStateError,
    dark_conditions_double,
    dark_conditions_single,
    dfs_requirements_double,
    dfs_state_single,
)
from .dynamics import DegenerateSteadyStateError, PositivityError, steady_state
from .fock_algebra import FockCutoff, composite_operators
from .model import DerivedParams, SystemParams, build_liouvillian, derive
from .observables import g2_zero, mean_photon_number, population, purity
from .truncated_oracle import TruncatedParams, truncated_liouvillian, truncated_operators

__version__ = "0.1.0"

__all__ = [
    "CollectiveAmplitudes",
    "CollectiveParams",
    "DarkReport",
    "DarkStateError",
    "DegenerateSteadyStateError",
    "DerivedParams",
    "FockCutoff",
    "PositivityError",
    "SystemParams",
    "TruncatedParams",
    "basis_change_matrix",
    "build_liouvillian",
    "collective_jump_operators",
    "composite_operators",
    "dark_conditions_double",
    "dark_conditions_single",
    "default_gauge",
    "derive",
    "dfs_requirements_double",
    "dfs_state_single",
    "embedding_isometry",
    "g2_zero",
    "mean_photon_number",
    "population",
    "purity",
    "steady_state",
    "truncated_liouvillian",
    "truncated_operators",
]
