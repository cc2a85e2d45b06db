"""Entropic uncertainty and certainty bounds for the three Pauli measurements.

The library evaluates Renyi and Tsallis entropies of the outcome
distributions of sigma_x, sigma_y, sigma_z on any qubit state, provides the
tight state-independent lower bound 2 ln 2 and pure-state ceiling
3 rho_hat(alpha) of the entropic sum for orders alpha in (0, 1], and
re-verifies every bound by exact grid extrema and random sampling.

The top level re-exports the entry points the demos use; everything else
is imported from its submodule.
"""

from .distributions import (
    alpha_log,
    phi_alpha,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from .qubit import BlochVector, PureStateAngles, pauli_eigenstate
from .pauli_measure import measure_mixed, measure_pure
from .bounds import (
    band_bounds,
    check_lower,
    check_upper,
    entropic_sum_renyi,
    entropic_sum_tsallis,
    rho_hat,
)
from .verify import (
    GridSpec,
    derivative_sign_check,
    grid_max_sum_pure,
    grid_min_sum,
    impurity_gap_scan,
    max_relative_gap,
    sweep_band,
)

__version__ = "0.1.0"

__all__ = [
    "alpha_log",
    "phi_alpha",
    "renyi_entropy",
    "shannon_entropy",
    "tsallis_entropy",
    "BlochVector",
    "PureStateAngles",
    "pauli_eigenstate",
    "measure_mixed",
    "measure_pure",
    "band_bounds",
    "check_lower",
    "check_upper",
    "entropic_sum_renyi",
    "entropic_sum_tsallis",
    "rho_hat",
    "GridSpec",
    "derivative_sign_check",
    "grid_max_sum_pure",
    "grid_min_sum",
    "impurity_gap_scan",
    "max_relative_gap",
    "sweep_band",
]
