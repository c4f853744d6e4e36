"""Steady-state parameter estimation in lossy non-Hermitian spin-1/2 chains.

The package builds the chain generator (nearest-neighbor pair creation with
on-site loss and a transverse field on site 1), extracts its slowest-decaying
eigenstate, and computes spectra, imaginary-part gaps (from the free-fermion
single-particle modes at any chain size), exceptional points, steady-state
observables, quantum Fisher information (exact from the same modes at any
chain size) and finite-size scaling fits.  A CLI
(``nhchain``) persists parameter sweeps as CSV.
"""

__version__ = "0.1.0"

from .critical import (
    EpCurve,
    EpPoint,
    ScalingFit,
    ep_curve,
    find_ep_J,
    fit_inverse_poly,
    gap_at,
)
from .errors import (
    ConvergenceError,
    DenseSizeError,
    EPProximityError,
    MemoryLimitError,
)
from .hamiltonian import ChainParams, build_total
from .majorana import majorana_gap, majorana_modes
from .observables import (
    ObservableRecord,
    correlation_profile,
    correlations_two_site,
    magnetizations_two_site,
    site_magnetizations,
)
from .operators import SparseOperator, op_matvec, pauli
from .qfi import (
    QfiEstimate,
    cramer_rao,
    fidelity_qfi_from_states,
    qfi_fidelity,
    qfi_two_site_analytic,
)
from .spectral import (
    DEFAULT_SEED,
    SteadyState,
    dense_eigenvalues,
    eigenvalues_two_site,
    evolve,
    phase_gauge,
    solve_steady_state,
    steady_state_dense,
    steady_state_krylov,
    steady_state_two_site,
)

__all__ = [
    "ChainParams",
    "ConvergenceError",
    "DEFAULT_SEED",
    "DenseSizeError",
    "EPProximityError",
    "EpCurve",
    "EpPoint",
    "MemoryLimitError",
    "ObservableRecord",
    "QfiEstimate",
    "ScalingFit",
    "SparseOperator",
    "SteadyState",
    "__version__",
    "build_total",
    "correlation_profile",
    "correlations_two_site",
    "cramer_rao",
    "dense_eigenvalues",
    "eigenvalues_two_site",
    "ep_curve",
    "evolve",
    "fidelity_qfi_from_states",
    "find_ep_J",
    "fit_inverse_poly",
    "gap_at",
    "magnetizations_two_site",
    "majorana_gap",
    "majorana_modes",
    "op_matvec",
    "pauli",
    "phase_gauge",
    "qfi_fidelity",
    "qfi_two_site_analytic",
    "site_magnetizations",
    "solve_steady_state",
    "steady_state_dense",
    "steady_state_krylov",
    "steady_state_two_site",
]
