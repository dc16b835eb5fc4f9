import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import pipeline
from sdfspectral.pfeig import _cholesky_stack, _normalize_stack, _solve_stack

from reference_maps import (
    affine_power_utility_solution,
    hermite_basis,
    population_sieve_matrices,
)

#: Monte Carlo dispersion of the eigenvalue estimator at n = 3200 on the
#: power-utility testbed (used as a +-3 sigma acceptance radius)
RMSE_RHO_3200 = 0.0159


def _solve(M, G):
    """The eigensolve of one pencil: a stack of one."""
    return _solve_stack(np.asarray(M, dtype=float)[None], _cholesky_stack(np.asarray(G)[None]))


def _fallback_fit(monkeypatch, basis, reason="no_positive_real"):
    """fit_panel on an observed-SDF panel of ``basis`` whose eigensolve is rejected by ``reason``."""
    monkeypatch.setattr(pipeline, "_solve_stack", lambda M, factor: _solve_stack(M, factor)._replace(
        reason=np.full(len(M), reason, dtype=object)))
    panel = s.StatePanel.from_states(np.linspace(-1.0, 1.0, 41), sdf_increments=np.full(40, 0.9))
    return s.fit_panel(s.Design(basis, panel))


def test_diagonal_pair():
    st = _solve(np.diag([2.0, 1.0]), np.eye(2))
    assert st.rho[0] == pytest.approx(2.0, abs=1e-12)
    assert abs(st.right[0, 1]) < 1e-12 and abs(st.left[0, 1]) < 1e-12
    assert st.reason[0] == ""
    assert st.gap[0] == pytest.approx(1.0, abs=1e-10)


def test_unit_sdf_gives_unit_eigenvalue(testbed):
    panel = s.simulate_ar1(testbed, 600, np.random.default_rng(1))
    panel = s.StatePanel.from_states(panel.states, sdf_increments=np.ones(panel.n))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    eig = s.fit_panel(s.Design(basis, panel)).eig
    assert eig.rho == pytest.approx(1.0, abs=1e-10)
    vals = basis.evaluate_many(panel.x0) @ eig.right
    np.testing.assert_allclose(vals, np.ones(panel.n), atol=1e-8)


def test_rho_matches_closed_form(power_fit, testbed, power_prefs):
    truth = affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    assert abs(power_fit["eig"].rho - truth.rho) < 3 * RMSE_RHO_3200


def test_normalize_scales_and_signs(power_fit):
    eig, G = power_fit["eig"], power_fit["G"]
    c, cs = eig.right, eig.left
    assert c @ G @ c == pytest.approx(1.0, abs=1e-10)
    assert cs @ G @ c == pytest.approx(1.0, abs=1e-10)
    c1 = power_fit["basis"].const_coeffs
    assert c1 @ G @ c == pytest.approx(
        np.mean(power_fit["basis"].evaluate_many(power_fit["panel"].x0) @ c)
    )
    assert c1 @ G @ c >= 0 and c1 @ G @ cs >= 0


def test_normalize_idempotent_and_scale_invariant(power_fit):
    eig, G, const = power_fit["eig"], power_fit["G"][None], power_fit["basis"].const_coeffs
    c, cs = eig.right[None], eig.left[None]
    again, again_star, _, _ = _normalize_stack(c, cs, G, const)
    np.testing.assert_allclose(again[0], eig.right, rtol=1e-14)
    np.testing.assert_allclose(again_star[0], eig.left, rtol=1e-14)
    renorm, renorm_star, _, _ = _normalize_stack(-3.7 * c, 0.2 * cs, G, const)
    np.testing.assert_allclose(renorm[0], eig.right, rtol=1e-12)
    np.testing.assert_allclose(renorm_star[0], eig.left, rtol=1e-12)


def test_normalize_rejects_fallback_and_defective(monkeypatch):
    # a rejected pencil is the constant fallback, whatever its coefficients
    basis = hermite_basis(0.0, 1.0, 1)
    const = basis.const_coeffs
    fallback = _fallback_fit(monkeypatch, basis)
    assert fallback.reason == "no_positive_real" and fallback.eig.rho == 1.0
    np.testing.assert_array_equal(fallback.eig.right, const)
    np.testing.assert_array_equal(fallback.eig.left, const)
    # a right row of zero G-norm, and a left row G-orthogonal to its right row
    good = _solve(np.diag([2.0, 1.0]), np.eye(2))
    right = np.stack([np.zeros(2), good.right[0], good.right[0]])
    left = np.stack([good.left[0], np.array([0.0, 1.0]), good.left[0]])
    _, _, bad_norm, orthogonal = _normalize_stack(right, left, np.stack([np.eye(2)] * 3), const)
    assert list(bad_norm) == [True, False, False]
    assert list(orthogonal) == [False, True, False]


def test_eigen_residual_identity(power_fit):
    eig, G, M = power_fit["eig"], power_fit["G"], power_fit["M"]
    resid = eig.left @ (M - eig.rho * G) @ eig.right
    assert abs(resid) < 1e-10


def test_similarity_invariance(power_fit):
    rng = np.random.default_rng(12)
    G, M = power_fit["G"], power_fit["M"]
    S = rng.normal(size=G.shape) + 3 * np.eye(G.shape[0])
    st = _solve_stack(np.stack([M, S.T @ M @ S]), _cholesky_stack(np.stack([G, S.T @ G @ S])))
    assert list(st.reason) == ["", ""]
    assert st.rho[1] == pytest.approx(st.rho[0], rel=1e-10)
    mapped = S @ st.right[1]
    cos = mapped @ st.right[0] / np.linalg.norm(mapped) / np.linalg.norm(st.right[0])
    assert abs(abs(cos) - 1.0) < 1e-8


def test_scale_equivariance(power_fit):
    G, M = power_fit["G"], power_fit["M"]
    st = _solve_stack(np.stack([M, 4.25 * M]), _cholesky_stack(np.stack([G, G])))
    assert list(st.reason) == ["", ""]
    assert st.rho[1] == pytest.approx(4.25 * st.rho[0], rel=1e-12)
    cos = st.right[1] @ st.right[0]
    assert abs(abs(cos) - 1.0) < 1e-10  # unit-norm eigenvectors from the solver


def test_monotone_consistency_in_k(testbed, power_prefs, quad_power):
    truth = affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    errs = []
    for k in (4, 6, 8, 12):
        basis = hermite_basis(testbed.mu, testbed.stationary_std, k - 1)
        G, M = population_sieve_matrices(quad_power, basis)
        st = _solve(M, G)
        assert st.reason[0] == ""
        errs.append(abs(st.rho[0] - truth.rho))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-9  # weakly decreasing, modulo quadrature error


def test_fallback_complex_and_tied(monkeypatch):
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    assert _solve(rotation, np.eye(2)).reason[0] == "no_positive_real"
    assert _solve(np.eye(3), np.eye(3)).reason[0] == "tie"
    basis = s.BasisSpec(family="bspline", k=5).build(np.linspace(-1.0, 1.0, 41))
    for reason in ("no_positive_real", "tie"):
        fit = _fallback_fit(monkeypatch, basis, reason)
        assert fit.reason == reason and fit.eig.rho == 1.0
        np.testing.assert_array_equal(fit.eig.right, np.ones(5))


def test_ridge_handles_semidefinite_gram():
    G = np.diag([1.0, 0.0])  # rank-deficient: forces the one-shot ridge
    M = np.diag([0.5, 0.0])
    st = _solve(M, G)
    assert st.reason[0] == "" and np.isfinite(st.rho[0])
    assert st.rho[0] == pytest.approx(0.5, rel=1e-6)


def test_eigenfunction_values_paths(power_fit, testbed, power_prefs, quad_power):
    basis, eig = power_fit["basis"], power_fit["eig"]
    pts = power_fit["panel"].x0
    b = basis.evaluate_many(pts)
    phi, phi_star = b @ eig.right, b @ eig.left
    # shape comparison with the affine oracle: log phi-hat is an affine
    # function of the state with slope -gamma*kappa/(1-kappa)
    truth = affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    target = truth.slope_a * (pts[:, 0] - testbed.mu)
    corr = np.corrcoef(np.log(np.abs(phi)), target)[0, 1]
    assert corr > 0.99
    # and the adjoint correlates with the quadrature oracle on the sample
    phi_star_o = np.interp(pts[:, 0], quad_power.nodes, quad_power.phi_star)
    assert np.corrcoef(phi_star, phi_star_o)[0, 1] > 0.95


def test_fallback_eigenfunction_values(monkeypatch):
    basis = hermite_basis(0.0, 1.0, 1)
    fit = _fallback_fit(monkeypatch, basis)
    b = basis.evaluate_many(np.array([[0.3], [0.9]]))
    phi, phi_star = b @ fit.eig.right, b @ fit.eig.left
    np.testing.assert_allclose(phi, [1.0, 1.0])
    np.testing.assert_allclose(phi_star, [1.0, 1.0])
    # ones on the sample, and no influence series or standard error
    for values in (fit.sample.phi_t, fit.sample.phi_t1, fit.sample.phi_star_t):
        np.testing.assert_array_equal(values, np.ones(40))
    assert np.isnan(fit.sample.psi_rho).all() and np.isnan(fit.sample.se_rho)
