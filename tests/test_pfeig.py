import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.oracle import population_sieve_matrices
from sdfspectral.pfeig import DefectivePairError

#: Monte Carlo dispersion of the eigenvalue estimator at n = 3200 on the
#: power-utility testbed (used as a +-3 sigma acceptance radius)
RMSE_RHO_3200 = 0.0159


def test_diagonal_pair():
    sol = s.solve_generalized(np.diag([2.0, 1.0]), np.eye(2))
    assert sol.rho == pytest.approx(2.0, abs=1e-12)
    assert abs(sol.right_coeffs[1]) < 1e-12 and abs(sol.left_coeffs[1]) < 1e-12
    assert not sol.is_fallback
    assert sol.spectral_gap == pytest.approx(1.0, abs=1e-10)


def test_unit_sdf_gives_unit_eigenvalue(testbed):
    panel = s.simulate_ar1(testbed, 600, np.random.default_rng(1))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, np.ones(panel.n))
    sol = s.normalize(s.solve_generalized(M, G, basis.const_coeffs), G)
    assert sol.rho == pytest.approx(1.0, abs=1e-10)
    vals = basis.evaluate_many(panel.x0) @ sol.right_coeffs
    np.testing.assert_allclose(vals, np.ones(panel.n), atol=1e-8)


def test_rho_matches_closed_form(power_fit, testbed, power_prefs):
    truth = s.affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    assert abs(power_fit["sol"].rho - truth.rho) < 3 * RMSE_RHO_3200


def test_normalize_scales_and_signs(power_fit):
    sol, G = power_fit["sol"], power_fit["G"]
    c, cs = sol.right_coeffs, sol.left_coeffs
    assert c @ G @ c == pytest.approx(1.0, abs=1e-10)
    assert cs @ G @ c == pytest.approx(1.0, abs=1e-10)
    c1 = power_fit["basis"].const_coeffs
    assert c1 @ G @ c == pytest.approx(
        np.mean(power_fit["basis"].evaluate_many(power_fit["panel"].x0) @ c)
    )
    assert c1 @ G @ c >= 0 and c1 @ G @ cs >= 0


def test_normalize_idempotent_and_scale_invariant(power_fit):
    from dataclasses import replace

    sol, G = power_fit["sol"], power_fit["G"]
    again = s.normalize(sol, G)
    np.testing.assert_allclose(again.right_coeffs, sol.right_coeffs, rtol=1e-14)
    np.testing.assert_allclose(again.left_coeffs, sol.left_coeffs, rtol=1e-14)
    scaled = replace(
        sol, right_coeffs=-3.7 * sol.right_coeffs, left_coeffs=0.2 * sol.left_coeffs
    )
    renorm = s.normalize(scaled, G)
    np.testing.assert_allclose(renorm.right_coeffs, sol.right_coeffs, rtol=1e-12)
    np.testing.assert_allclose(renorm.left_coeffs, sol.left_coeffs, rtol=1e-12)


def test_normalize_rejects_fallback_and_defective():
    fallback = s.solve_generalized(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    assert fallback.is_fallback
    with pytest.raises(ValueError):
        s.normalize(fallback, np.eye(2))
    from dataclasses import replace

    good = s.solve_generalized(np.diag([2.0, 1.0]), np.eye(2))
    broken = replace(good, left_coeffs=np.array([0.0, 1.0]))
    with pytest.raises(DefectivePairError):
        s.normalize(broken, np.eye(2))


def test_eigen_residual_identity(power_fit):
    sol, G, M = power_fit["sol"], power_fit["G"], power_fit["M"]
    resid = sol.left_coeffs @ (M - sol.rho * G) @ sol.right_coeffs
    assert abs(resid) < 1e-10


def test_similarity_invariance(power_fit):
    rng = np.random.default_rng(12)
    G, M = power_fit["G"], power_fit["M"]
    S = rng.normal(size=G.shape) + 3 * np.eye(G.shape[0])
    sol = s.solve_generalized(M, G)
    sol_t = s.solve_generalized(S.T @ M @ S, S.T @ G @ S)
    assert sol_t.rho == pytest.approx(sol.rho, rel=1e-10)
    mapped = S @ sol_t.right_coeffs
    cos = mapped @ sol.right_coeffs / np.linalg.norm(mapped) / np.linalg.norm(sol.right_coeffs)
    assert abs(abs(cos) - 1.0) < 1e-8


def test_scale_equivariance(power_fit):
    G, M = power_fit["G"], power_fit["M"]
    sol = s.solve_generalized(M, G)
    scaled = s.solve_generalized(4.25 * M, G)
    assert scaled.rho == pytest.approx(4.25 * sol.rho, rel=1e-12)
    cos = scaled.right_coeffs @ sol.right_coeffs
    assert abs(abs(cos) - 1.0) < 1e-10  # unit-norm eigenvectors from the solver


def test_monotone_consistency_in_k(testbed, power_prefs, quad_power):
    truth = s.affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    errs = []
    for k in (4, 6, 8, 12):
        basis = s.hermite_basis_from_moments([testbed.mu], [testbed.stationary_std], k - 1)
        G, M = population_sieve_matrices(quad_power.operator, basis)
        sol = s.solve_generalized(M, G, basis.const_coeffs)
        errs.append(abs(sol.rho - truth.rho))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-9  # weakly decreasing, modulo quadrature error


def test_fallback_complex_and_tied():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    sol = s.solve_generalized(rotation, np.eye(2), const_coeffs=np.array([1.0, 1.0]))
    assert sol.is_fallback and sol.rho == 1.0
    np.testing.assert_array_equal(sol.right_coeffs, [1.0, 1.0])
    tied = s.solve_generalized(np.eye(3), np.eye(3))
    assert tied.is_fallback


def test_ridge_handles_semidefinite_gram():
    G = np.diag([1.0, 0.0])  # rank-deficient: forces the one-shot ridge
    M = np.diag([0.5, 0.0])
    sol = s.solve_generalized(M, G)
    assert np.isfinite(sol.rho)
    assert sol.rho == pytest.approx(0.5, rel=1e-6)


def test_eigenfunction_values_paths(power_fit, testbed, power_prefs, quad_power):
    basis, sol = power_fit["basis"], power_fit["sol"]
    pts = power_fit["panel"].x0
    phi, phi_star = s.eigenfunction_values(sol, basis, pts)
    # shape comparison with the affine oracle: log phi-hat is an affine
    # function of the state with slope -gamma*kappa/(1-kappa)
    truth = s.affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    target = truth.slope_a * (pts[:, 0] - testbed.mu)
    corr = np.corrcoef(np.log(np.abs(phi)), target)[0, 1]
    assert corr > 0.99
    # and the adjoint correlates with the quadrature oracle on the sample
    phi_star_o = np.interp(pts[:, 0], quad_power.nodes, quad_power.phi_star)
    assert np.corrcoef(phi_star, phi_star_o)[0, 1] > 0.95


def test_fallback_eigenfunction_values():
    basis = s.hermite_basis_from_moments([0.0], [1.0], 1)
    sol = s.solve_generalized(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2), basis.const_coeffs
    )
    phi, phi_star = s.eigenfunction_values(sol, basis, np.array([[0.3], [0.9]]))
    np.testing.assert_allclose(phi, [1.0, 1.0])
    np.testing.assert_allclose(phi_star, [1.0, 1.0])
