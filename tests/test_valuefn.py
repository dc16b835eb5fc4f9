import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.oracle import population_nonlinear_map

#: Monte Carlo dispersion of the eigenvalue estimator at n = 3200 on the
#: recursive testbed (+-3 sigma acceptance radius)
RMSE_LAMBDA_3200 = 0.0123


@pytest.fixture(scope="module")
def recursive_fit(testbed, recursive_prefs, panel3200):
    basis = s.BasisSpec(family="hermite", k=8).build(panel3200.states)
    design = s.Design(basis, panel3200)
    fp = s.solve_value_fixed_point(design, recursive_prefs.beta, recursive_prefs.gamma)
    return {"basis": basis, "panel": panel3200, "design": design, "fp": fp}


def test_log_utility_degenerates_to_constant(testbed):
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(21))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    fp = s.solve_value_fixed_point(design, 0.994, 1.0)
    assert fp.converged and fp.iterations <= 2
    assert fp.lam == pytest.approx(1.0, abs=1e-12)
    chi = basis.evaluate_many(panel.x0) @ fp.chi_coeffs
    np.testing.assert_allclose(chi, np.ones(panel.n), atol=1e-10)
    m = s.recursive_sdf_series(design, fp)
    np.testing.assert_allclose(m, 0.994 / panel.growth, rtol=1e-10)


def test_constant_growth_closed_form(testbed):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(22))
    g = 1.02
    panel = s.StatePanel.from_states(panel.states, growth=np.full(panel.n, g))
    basis = s.BasisSpec(family="hermite", k=6).build(panel.states)
    beta, gamma = 0.95, 8.0
    design = s.Design(basis, panel)
    fp = s.solve_value_fixed_point(design, beta, gamma)
    assert fp.lam == pytest.approx(g ** (1.0 - gamma), rel=1e-10)
    chi = basis.evaluate_many(panel.x0) @ fp.chi_coeffs
    np.testing.assert_allclose(chi, np.ones(panel.n), atol=1e-9)
    m = s.recursive_sdf_series(design, fp)
    np.testing.assert_allclose(m, np.full(panel.n, beta / g), rtol=1e-9)


def test_lambda_matches_quadrature_oracle(recursive_fit, quad_recursive):
    assert abs(recursive_fit["fp"].lam - quad_recursive.lam) < 3 * RMSE_LAMBDA_3200


def test_solution_invariants(recursive_fit):
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    G = s.estimate_gram(design)
    assert fp.converged
    assert fp.chi_coeffs @ G @ fp.chi_coeffs == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(
        fp.h_coeffs, fp.lam ** (1.0 / (1.0 - fp.beta)) * fp.chi_coeffs, rtol=1e-14
    )
    # the sample eigen relation holds at the solver tolerance
    t_chi = s.value_map(design, fp.beta, fp.gamma)(fp.chi_coeffs)
    resid = np.linalg.solve(G, t_chi) - fp.lam * fp.chi_coeffs
    assert math.sqrt(resid @ G @ resid) < 1e-9


def test_residual_certificate(recursive_fit):
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    G = s.estimate_gram(design)
    t_h = s.value_map(design, fp.beta, fp.gamma)(fp.h_coeffs)
    r = np.linalg.solve(G, t_h) - fp.h_coeffs
    assert math.sqrt(r @ G @ r) < 1e-10


def test_start_scaling_invariance(recursive_fit, recursive_prefs):
    basis, panel, design = recursive_fit["basis"], recursive_fit["panel"], recursive_fit["design"]
    fp = recursive_fit["fp"]
    G = s.estimate_gram(design)
    default_start = np.linalg.solve(G, basis.evaluate_many(panel.x0).mean(axis=0))
    inflated = s.solve_value_fixed_point(
        design, recursive_prefs.beta, recursive_prefs.gamma, z0=37.0 * default_start
    )
    assert inflated.lam == pytest.approx(fp.lam, rel=1e-12)
    np.testing.assert_allclose(inflated.chi_coeffs, fp.chi_coeffs, rtol=1e-10)


def test_oracle_equivalence_on_population_map(testbed, recursive_prefs, quad_recursive):
    # running the same normalized iteration on the population matrices
    # reproduces the projected eigenpair: solver error is isolated from
    # sampling error
    beta, gamma = recursive_prefs.beta, recursive_prefs.gamma
    basis = s.hermite_basis_from_moments([testbed.mu], [testbed.stationary_std], 7)
    t_map, G = population_nonlinear_map(testbed, basis, beta, gamma, 80)
    z = basis.const_coeffs.astype(float)
    for _ in range(500):
        y = z / math.sqrt(z @ G @ z)
        z = np.linalg.solve(G, t_map(y))
    lam_k = math.sqrt(z @ G @ z)
    resid = np.linalg.solve(G, t_map(y)) - lam_k * y
    assert math.sqrt(resid @ G @ resid) < 1e-8
    # with k = 8 the sieve solution is numerically indistinguishable from
    # the infinite-dimensional one on this testbed
    assert lam_k == pytest.approx(quad_recursive.lam, abs=1e-6)


def test_sdf_series_positivity_guard(recursive_fit, recursive_prefs):
    from dataclasses import replace

    fp, design = recursive_fit["fp"], recursive_fit["design"]
    bad = replace(fp, chi_coeffs=-fp.chi_coeffs + 0.5 * np.eye(8)[1])
    assert (bad.beta, bad.gamma) == (recursive_prefs.beta, recursive_prefs.gamma)
    with pytest.raises(ValueError, match="not positive on sample"):
        s.recursive_sdf_series(design, bad)


def test_parameter_validation(recursive_fit):
    basis, panel, design = recursive_fit["basis"], recursive_fit["panel"], recursive_fit["design"]
    with pytest.raises(ValueError):
        s.solve_value_fixed_point(design, 1.2, 5.0)
    with pytest.raises(ValueError):
        s.solve_value_fixed_point(design, 0.99, 0.5)
    bare = s.StatePanel.from_states(panel.states)
    with pytest.raises(ValueError, match="growth"):
        s.solve_value_fixed_point(s.Design(basis, bare), 0.99, 5.0)


def test_non_convergence_returns_best_iterate(recursive_fit, recursive_prefs):
    fp = s.solve_value_fixed_point(
        recursive_fit["design"], recursive_prefs.beta, recursive_prefs.gamma, max_iter=2
    )
    assert not fp.converged
    assert np.isfinite(fp.lam) and np.all(np.isfinite(fp.chi_coeffs))


def test_downstream_eigen_residual_with_plugin_sdf(recursive_fit, recursive_prefs):
    fp, basis, design = recursive_fit["fp"], recursive_fit["basis"], recursive_fit["design"]
    m = s.recursive_sdf_series(design, fp)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, m)
    sol = s.normalize(s.solve_generalized(M, G, basis.const_coeffs), G)
    psi = s.influence_rho(sol, design, m).psi_rho
    assert abs(psi.mean()) < 1e-10
