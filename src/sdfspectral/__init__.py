"""Spectral decomposition of stochastic discount factors.

Sieve estimation of the dominant eigenvalue/eigenfunctions of the pricing
operator implied by a Markov state and an SDF process, the induced
permanent/transitory decomposition and long-run functionals, nonlinear
value-recursion eigenproblems for unit-EIS recursive preferences, and
inference via influence functions and the stationary bootstrap.
"""

__version__ = "0.1.0"

from .basis import BasisSpec, SieveBasis
from .calibrate import CalibrationResult, criterion_grid, estimate_preferences
from .decomp import (
    DecompSeries,
    change_of_measure,
    long_run_stack,
    pt_association,
    pt_series,
)
from .inference import (
    BootstrapResult,
    bootstrap_ci,
    default_bandwidth,
    variance_entropy,
)
from .oracle import Ar1Design, QuadratureSolution, quadrature_eig
from .pipeline import bootstrap_statistic, fit_panel
from .preferences import PowerUtility, RecursiveUtility
from .sievemat import Design, StatePanel, estimate_gram, estimate_pricing
from .simkit import McDesign, McTable, l2_distance, run_mc_study, simulate_ar1
from .valuefn import FixedPointStack, solve_value_stack

__all__ = [
    # basis
    "BasisSpec", "SieveBasis",
    # calibrate
    "CalibrationResult", "criterion_grid", "estimate_preferences",
    # decomp
    "DecompSeries", "change_of_measure", "long_run_stack", "pt_association", "pt_series",
    # inference
    "BootstrapResult", "bootstrap_ci", "default_bandwidth", "variance_entropy",
    # oracle
    "Ar1Design", "QuadratureSolution", "quadrature_eig",
    # pipeline
    "bootstrap_statistic", "fit_panel",
    # preferences
    "PowerUtility", "RecursiveUtility",
    # sievemat
    "Design", "StatePanel", "estimate_gram", "estimate_pricing",
    # simkit
    "McDesign", "McTable", "l2_distance", "run_mc_study", "simulate_ar1",
    # valuefn
    "FixedPointStack", "solve_value_stack",
]
