import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.pfeig import _row
from sdfspectral.sievemat import CountRows

from reference_maps import (
    hermite_basis,
    population_nonlinear_map,
    stationary_bootstrap_indices,
    value_map,
)

#: Monte Carlo dispersion of the eigenvalue estimator at n = 3200 on the
#: recursive testbed (+-3 sigma acceptance radius)
RMSE_LAMBDA_3200 = 0.0123


def _solve(design, beta, gamma):
    """The value recursion of one design at one (beta, gamma): row 0 of a stack of one."""
    return _row(s.solve_value_stack(design, beta, gamma), 0)


def _sdf(design, fp):
    """The SDF increments of one converged recursion, and whether chi is positive on the sample."""
    m, reason = s.valuefn.recursive_sdf_stack(design, type(fp)._make(np.asarray(f)[None] for f in fp))
    return m[:, 0], reason[0] == ""


@pytest.fixture(scope="module")
def recursive_fit(testbed, recursive_prefs, panel3200):
    basis = s.BasisSpec(family="hermite", k=8).build(panel3200.states)
    design = s.Design(basis, panel3200)
    fp = _solve(design, recursive_prefs.beta, recursive_prefs.gamma)
    return {"basis": basis, "panel": panel3200, "design": design, "fp": fp}


def test_log_utility_degenerates_to_constant(testbed):
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(21))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    fp = _solve(design, 0.994, 1.0)
    assert fp.reason == "" and fp.iterations <= 2
    assert fp.lam == pytest.approx(1.0, abs=1e-12)
    chi = basis.evaluate_many(panel.x0) @ fp.chi_coeffs
    np.testing.assert_allclose(chi, np.ones(panel.n), atol=1e-10)
    m, usable = _sdf(design, fp)
    assert usable
    np.testing.assert_allclose(m, 0.994 / panel.growth, rtol=1e-10)


def test_constant_growth_closed_form(testbed):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(22))
    g = 1.02
    panel = s.StatePanel.from_states(panel.states, growth=np.full(panel.n, g))
    basis = s.BasisSpec(family="hermite", k=6).build(panel.states)
    beta, gamma = 0.95, 8.0
    design = s.Design(basis, panel)
    fp = _solve(design, beta, gamma)
    assert fp.lam == pytest.approx(g ** (1.0 - gamma), rel=1e-10)
    chi = basis.evaluate_many(panel.x0) @ fp.chi_coeffs
    np.testing.assert_allclose(chi, np.ones(panel.n), atol=1e-9)
    m, usable = _sdf(design, fp)
    assert usable
    np.testing.assert_allclose(m, np.full(panel.n, beta / g), rtol=1e-9)


def test_lambda_matches_quadrature_oracle(recursive_fit, quad_recursive):
    assert abs(recursive_fit["fp"].lam - quad_recursive.lam) < 3 * RMSE_LAMBDA_3200


def test_solution_invariants(recursive_fit):
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    G = s.estimate_gram(design)
    assert fp.reason == ""
    assert fp.chi_coeffs @ G @ fp.chi_coeffs == pytest.approx(1.0, abs=1e-8)
    # the sample eigen relation holds at the solver tolerance
    t_chi = value_map(design, fp.beta, fp.gamma)(fp.chi_coeffs)
    resid = np.linalg.solve(G, t_chi) - fp.lam * fp.chi_coeffs
    assert math.sqrt(resid @ G @ resid) < 1e-9


def test_residual_certificate(recursive_fit):
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    G = s.estimate_gram(design)
    # the unnormalized fixed point h = lam^(1/(1-beta)) chi solves G h = T(h)
    h = fp.lam ** (1.0 / (1.0 - fp.beta)) * fp.chi_coeffs
    t_h = value_map(design, fp.beta, fp.gamma)(h)
    r = np.linalg.solve(G, t_h) - h
    assert math.sqrt(r @ G @ r) < 1e-10


def test_oracle_equivalence_on_population_map(testbed, recursive_prefs, quad_recursive):
    # running the same normalized iteration on the population matrices
    # reproduces the projected eigenpair: solver error is isolated from
    # sampling error
    beta, gamma = recursive_prefs.beta, recursive_prefs.gamma
    basis = hermite_basis(testbed.mu, testbed.stationary_std, 7)
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
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    bad = fp._replace(chi_coeffs=-fp.chi_coeffs + 0.5 * np.eye(8)[1])
    assert (bad.beta, bad.gamma) == (recursive_prefs.beta, recursive_prefs.gamma)
    assert _sdf(design, fp)[1] and not _sdf(design, bad)[1]


def test_parameter_validation(recursive_fit):
    basis, panel, design = recursive_fit["basis"], recursive_fit["panel"], recursive_fit["design"]
    for beta, gamma in ((1.2, 5.0), (0.99, 0.5)):
        fp = _solve(design, beta, gamma)
        assert fp.reason == "invalid_parameters" and np.isnan(fp.lam)
    bare = s.StatePanel.from_states(panel.states)
    with pytest.raises(ValueError, match="growth"):
        _solve(s.Design(basis, bare), 0.99, 5.0)


def test_non_convergence_returns_best_iterate(recursive_fit, recursive_prefs, monkeypatch):
    monkeypatch.setattr(s.valuefn, "MAX_ITER", 2)
    fp = _solve(
        recursive_fit["design"], recursive_prefs.beta, recursive_prefs.gamma
    )
    assert fp.reason == "unconverged_value_recursion"
    assert np.isfinite(fp.lam) and np.all(np.isfinite(fp.chi_coeffs))


def test_final_step_is_the_g_norm_step(recursive_fit, recursive_prefs, monkeypatch):
    # an unconverged column reports the G-norm distance between its last two
    # normalized iterates y_j = z_j / |z_j|_G, z_{j+1} = G^-1 T(y_j)
    design = recursive_fit["design"]
    G = design.gram
    monkeypatch.setattr(s.valuefn, "MAX_ITER", 3)
    beta, gammas = recursive_prefs.beta, [recursive_prefs.gamma, 5.0]
    st = s.solve_value_stack(design, beta, gammas)
    for p, gamma in enumerate(gammas):
        t_map = value_map(design, beta, gamma)
        z, ys = np.linalg.solve(G, design.b0.mean(axis=0)), []
        for _ in range(3):
            ys.append(z / math.sqrt(z @ G @ z))
            z = np.linalg.solve(G, t_map(ys[-1]))
        d = ys[-1] - ys[-2]
        assert st.reason[p] == "unconverged_value_recursion" and st.iterations[p] == 3
        assert st.final_step[p] == pytest.approx(math.sqrt(d @ G @ d), rel=1e-10)


def test_downstream_eigen_residual_with_plugin_sdf(recursive_fit, recursive_prefs):
    fp, design = recursive_fit["fp"], recursive_fit["design"]
    fit = s.fit_panel(design, recursive_prefs)
    np.testing.assert_array_equal(fit.m, _sdf(design, fp)[0])
    assert abs(fit.sample.psi_rho.mean()) < 1e-10


def test_stacked_columns_equal_their_single_solves(testbed, monkeypatch):
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(23))
    growth = panel.growth.copy()
    growth[7] = math.exp(-15.0)  # G^(1-gamma) overflows at t = 7 for gamma = 60 only
    panel = s.StatePanel.from_states(panel.states, growth=growth)
    design = s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel)
    betas, gammas = (a.ravel() for a in np.meshgrid([0.9, 0.97, 0.994], [1.0, 5.0, 15.0, 60.0]))
    # gamma = 1 converges in two steps, the larger gammas do not
    monkeypatch.setattr(s.valuefn, "MAX_ITER", 2)
    st = s.solve_value_stack(design, betas, gammas)
    assert set(st.reason) == {"", "unconverged_value_recursion", "growth_overflow"}
    for p, (beta, gamma) in enumerate(zip(betas, gammas)):
        if gamma == 60.0:
            assert st.reason[p] == "growth_overflow" and np.isnan(st.lam[p])
            fp = _solve(design, beta, gamma)
            assert fp.reason == "growth_overflow" and np.isnan(fp.lam)
            with pytest.raises(ValueError, match="overflows at t=7"):
                value_map(design, beta, gamma)
            continue
        fp = _solve(design, beta, gamma)
        assert st.iterations[p] == fp.iterations and st.reason[p] == fp.reason
        assert st.lam[p] == pytest.approx(fp.lam, rel=1e-12, abs=0)
        np.testing.assert_allclose(st.chi_coeffs[p], fp.chi_coeffs, rtol=0, atol=1e-10)
        assert st.reason[p] in ("", "unconverged_value_recursion")
        if gamma == 1.0:
            assert fp.reason == "" and fp.iterations <= 2


def test_stacked_count_rows_equal_resampled_solves(recursive_fit, recursive_prefs):
    design = recursive_fit["design"]
    n = design.n
    rng = np.random.default_rng(8)
    counts = np.array([np.bincount(stationary_bootstrap_indices(n, 6.0, rng), minlength=n)
                       for _ in range(5)])
    st = s.solve_value_stack(CountRows(design, counts), recursive_prefs.beta, recursive_prefs.gamma)
    for r in range(len(counts)):
        idx = np.repeat(np.arange(n), counts[r])
        panel = s.StatePanel(
            x0=design.panel.x0[idx], x1=design.panel.x1[idx], growth=design.panel.growth[idx]
        )
        fp = _solve(
            s.Design(design.basis, panel), recursive_prefs.beta, recursive_prefs.gamma
        )
        assert st.iterations[r] == fp.iterations and st.reason[r] == fp.reason
        assert st.lam[r] == pytest.approx(fp.lam, rel=1e-12, abs=0)


def test_stack_flags_invalid_parameters(recursive_fit):
    st = s.solve_value_stack(recursive_fit["design"], [1.2, 0.99, 0.99], [5.0, 0.5, 5.0])
    assert list(st.reason) == ["invalid_parameters", "invalid_parameters", ""]
    assert np.isnan(st.lam[:2]).all()


def test_degenerate_column_ends_without_stopping_the_stack(testbed):
    # G^(1-gamma) is finite for gamma = 60, but the map's image overflows
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(5))
    panel = s.StatePanel.from_states(panel.states, growth=np.full(panel.n, math.exp(-12.02)))
    design = s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel)
    st = s.solve_value_stack(design, 0.99, [60.0, 5.0])
    assert list(st.reason) == ["unconverged_value_recursion", ""]
    assert np.isnan(st.lam[0]) and np.isnan(st.chi_coeffs[0]).all() and st.iterations[0] < 10
    assert st.lam[1] == pytest.approx(_solve(design, 0.99, 5.0).lam, rel=1e-12)
    fp = _solve(design, 0.99, 60.0)
    assert fp.reason == "unconverged_value_recursion" and np.isnan(fp.lam)


def test_reported_chi_has_a_positive_mean(testbed, recursive_fit, recursive_prefs, monkeypatch):
    # from the fixed start every iterate is G^-1 of a positive-mean vector, so
    # the reported chi has const'G chi > 0 whether or not its column converged
    design, const = recursive_fit["design"], recursive_fit["basis"].const_coeffs
    beta, gamma = recursive_prefs.beta, recursive_prefs.gamma
    for max_iter in (1, 2):
        monkeypatch.setattr(s.valuefn, "MAX_ITER", max_iter)
        fp = _solve(design, beta, gamma)
        assert fp.reason == "unconverged_value_recursion" and const @ design.gram @ fp.chi_coeffs > 0
    monkeypatch.undo()
    rng = np.random.default_rng(9)
    counts = np.array([np.bincount(stationary_bootstrap_indices(design.n, 6.0, rng),
                                   minlength=design.n) for _ in range(4)])
    rows = CountRows(design, counts)
    st = s.solve_value_stack(rows, beta, gamma)
    assert np.all(np.einsum("k,rkl,rl->r", const, rows.factor.G, st.chi_coeffs) > 0)
    designs = []
    for seed in range(3):
        panel = s.simulate_ar1(testbed, 300, np.random.default_rng(70 + seed))
        designs.append(s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel))
    stack = s.sievemat.DesignStack(
        np.stack([d.b0 for d in designs]), np.stack([d.b1 for d in designs]),
        np.stack([d.growth for d in designs]), const,
    )
    st = s.solve_value_stack(stack, beta, gamma)
    assert np.all(np.einsum("k,rkl,rl->r", const, stack.gram, st.chi_coeffs) > 0)


def test_design_stack_columns_equal_their_own_designs(testbed, recursive_prefs):
    # column r of a DesignStack solves design r's recursion and forms its SDF
    # from design r's rows, exactly as the design alone does
    designs = []
    for seed in range(4):
        panel = s.simulate_ar1(testbed, 300, np.random.default_rng(60 + seed))
        designs.append(s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel))
    stack = s.sievemat.DesignStack(
        np.stack([d.b0 for d in designs]), np.stack([d.b1 for d in designs]),
        np.stack([d.growth for d in designs]), designs[0].const_coeffs,
    )
    beta, gamma = recursive_prefs.beta, recursive_prefs.gamma
    st = s.solve_value_stack(stack, beta, gamma)
    m, reason = s.valuefn.recursive_sdf_stack(stack, st)
    for r, design in enumerate(designs):
        np.testing.assert_array_equal(stack.gram[r], design.gram)
        fp = _solve(design, beta, gamma)
        assert st.iterations[r] == fp.iterations and st.reason[r] == ""
        assert st.lam[r] == fp.lam
        np.testing.assert_array_equal(st.chi_coeffs[r], fp.chi_coeffs)
        assert reason[r] == ""
        np.testing.assert_array_equal(m[:, r], _sdf(design, fp)[0])
    with pytest.raises(ValueError, match="design stack"):
        CountRows(stack, np.ones((4, 300)))


@pytest.mark.parametrize("beta, message", [
    (np.full((3, 2), 0.99), "2 count rows for 6 columns"),
    (np.full((2, 1), 0.99), "2 count rows for 4 columns"),
], ids=["beta_3x2", "beta_2x1"])
def test_count_rows_must_match_the_columns(testbed, beta, message):
    panel = s.simulate_ar1(testbed, 60, np.random.default_rng(3))
    design = s.Design(s.BasisSpec(family="hermite", k=4).build(panel.states), panel)
    with pytest.raises(ValueError, match=f"^{message}$"):
        s.solve_value_stack(CountRows(design, np.ones((2, panel.n))), beta, 15.0)


def _failing_design(testbed, *fails):
    """A k = 8 design on 300 pairs, with its rows made to fail the value recursion's checks ``fails``.

    Its growth at t = 7 is exp(-15), so that G^(1-gamma) overflows for gamma = 60 only.
    """
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(23))
    growth = panel.growth.copy()
    growth[7] = math.exp(-15.0)
    panel = s.StatePanel.from_states(panel.states, growth=growth)
    design = s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel)
    if "gram_not_spd" in fails:  # a b(X_t) that is not finite: G is not finite
        design.b0 = design.b0.copy()
        design.b0[3, 1] = np.nan
    if "pricing_not_finite" in fails:  # b(X_n) overflows: G factors, the map's rows do not
        design.b1 = design.b1.copy()
        design.b1[-1, 1] = np.inf
    return design


@pytest.mark.parametrize("reason", ["invalid_parameters", "growth_overflow", "gram_not_spd",
                                    "pricing_not_finite", "unconverged_value_recursion"])
def test_a_one_point_solve_keeps_the_books_of_a_stacked_column(testbed, monkeypatch, reason):
    # a one-point solve names each reason, and reports the iterations, the final step and
    # the eigenvalue of its column, as column 0 of a stack of two does
    design = _failing_design(testbed, reason)
    beta, gamma = {"invalid_parameters": (1.2, 5.0), "growth_overflow": (0.97, 60.0)}.get(
        reason, (0.97, 5.0))
    if reason == "unconverged_value_recursion":
        monkeypatch.setattr(s.valuefn, "MAX_ITER", 2)
    one = s.solve_value_stack(design, beta, gamma)
    two = s.solve_value_stack(design, [beta, 0.97], [gamma, 5.0])
    assert list(one.reason) == [reason] and two.reason[0] == reason
    if reason == "unconverged_value_recursion":
        # iterated: its last iterate is kept; a stack's products differ from the single
        # column's in the last bits (gemm against gemv)
        assert one.iterations[0] == two.iterations[0] == 2
        assert one.final_step[0] == pytest.approx(two.final_step[0], rel=1e-12, abs=0)
        assert one.final_step[0] >= s.valuefn.TOL
        assert one.lam[0] == pytest.approx(two.lam[0], rel=1e-12, abs=0)
        np.testing.assert_allclose(one.chi_coeffs[0], two.chi_coeffs[0], rtol=0, atol=1e-10)
    else:
        # never iterated
        assert one.iterations[0] == two.iterations[0] == 0
        assert one.final_step[0] == two.final_step[0] == np.inf
        assert np.isnan(one.lam[0]) and np.isnan(two.lam[0])
        assert np.isnan(one.chi_coeffs).all() and np.isnan(two.chi_coeffs[0]).all()
    # the other column fails with it where the whole design fails, and converges elsewhere
    shared = reason in ("gram_not_spd", "pricing_not_finite", "unconverged_value_recursion")
    assert two.reason[1] == (reason if shared else "")
    assert np.isnan(two.lam[1]) == (reason in ("gram_not_spd", "pricing_not_finite"))


@pytest.mark.parametrize("fails, expected", [
    (("gram_not_spd", "pricing_not_finite", "invalid_parameters"), "gram_not_spd"),
    (("pricing_not_finite", "invalid_parameters", "growth_overflow"), "pricing_not_finite"),
    (("invalid_parameters", "growth_overflow"), "invalid_parameters"),
], ids=["gram_not_spd", "pricing_not_finite", "invalid_parameters"])
def test_a_column_failing_several_checks_is_named_by_the_first(testbed, fails, expected):
    design = _failing_design(testbed, *fails)
    beta = 1.2 if "invalid_parameters" in fails else 0.97
    gamma = 60.0 if "growth_overflow" in fails else 5.0
    st = s.solve_value_stack(design, beta, gamma)
    assert list(st.reason) == [expected] and st.iterations[0] == 0 and np.isnan(st.lam[0])
