"""Spectral decomposition of stochastic discount factors.

Sieve estimation of the dominant eigenvalue/eigenfunctions of the pricing
operator implied by a Markov state and an SDF process, the induced
permanent/transitory decomposition and long-run functionals, nonlinear
value-recursion eigenproblems for unit-EIS recursive preferences, and
inference via influence functions and the stationary bootstrap.
"""

__version__ = "0.1.0"

from .basis import (
    BasisFamily,
    BasisSpec,
    SieveBasis,
    build_bspline_basis,
    build_hermite_basis,
    build_sparse_tensor,
    hermite_basis_from_moments,
)
from .calibrate import CalibrationResult, criterion, estimate_preferences
from .decomp import (
    DecompSeries,
    change_of_measure,
    long_run_yield,
    permanent_entropy,
    pt_association,
    pt_series,
    sdf_entropy,
)
from .inference import (
    BootstrapResult,
    InfluenceSeries,
    bootstrap_ci,
    default_bandwidth,
    influence_rho,
    stationary_bootstrap_indices,
    variance_entropy,
)
from .oracle import (
    AffineSolution,
    Ar1Design,
    QuadratureOperator,
    QuadratureSolution,
    affine_power_utility_solution,
    quadrature_eig,
)
from .pfeig import EigenSolution, eigenfunction_values, normalize, solve_generalized
from .pipeline import DecompositionResult, Fit, bootstrap_statistic, decompose_panel, fit_panel
from .preferences import PowerUtility, RecursiveUtility, power_utility_sdf_series
from .sievemat import Design, StatePanel, estimate_gram, estimate_pricing
from .simkit import McDesign, McTable, l2_distance, run_mc_study, simulate_ar1
from .valuefn import (
    FixedPointSolution,
    recursive_sdf_series,
    solve_value_fixed_point,
    value_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
