"""Shared fixtures: the Gaussian AR(1) testbed and its quadrature solutions."""

import numpy as np
import pytest

import sdfspectral as s
from reference_maps import QuadratureSolution, quadrature_eig

BETA, GAMMA = 0.994, 15.0


@pytest.fixture(scope="session")
def testbed() -> s.Ar1Design:
    return s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01)


@pytest.fixture(scope="session")
def power_prefs() -> s.PowerUtility:
    return s.PowerUtility(beta=BETA, gamma=GAMMA)


@pytest.fixture(scope="session")
def recursive_prefs() -> s.RecursiveUtility:
    return s.RecursiveUtility(beta=BETA, gamma=GAMMA)


@pytest.fixture(scope="session")
def quad_power(testbed, power_prefs) -> QuadratureSolution:
    return quadrature_eig(testbed, power_prefs, 80)


@pytest.fixture(scope="session")
def quad_recursive(testbed, recursive_prefs) -> QuadratureSolution:
    return quadrature_eig(testbed, recursive_prefs, 80)


@pytest.fixture(scope="session")
def panel3200(testbed) -> s.StatePanel:
    return s.simulate_ar1(testbed, 3200, np.random.default_rng(2024))


@pytest.fixture(scope="session")
def power_fit(panel3200, power_prefs):
    """Basis, design, matrices, and the normalized eigenpair (a row of the eigensolve) for the power design."""
    basis = s.BasisSpec(family="hermite", k=8).build(panel3200.states)
    design = s.Design(basis, panel3200)
    fit = s.fit_panel(design, power_prefs)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, fit.m)
    return {"basis": basis, "panel": panel3200, "design": design, "G": G, "M": M, "eig": fit.eig,
            "m": fit.m, "fit": fit}
