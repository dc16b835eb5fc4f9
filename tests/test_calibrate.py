import math
from collections import Counter

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import calibrate

from reference_maps import hermite_basis


def _euler_exact_panel(testbed, beta, gamma, n=800, seed=41, noise=0.0):
    """Panel whose returns price exactly (R = 1/m) under the fitted SDF."""
    panel = s.simulate_ar1(testbed, n, np.random.default_rng(seed))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    m = s.fit_panel(s.Design(basis, panel), s.RecursiveUtility(beta, gamma)).m
    rng = np.random.default_rng(seed + 1)
    r1 = 1.0 / m
    r2 = r1 * np.exp(noise * rng.standard_normal(n)) if noise else r1.copy()
    returns = np.column_stack([r1, r2])
    full = s.StatePanel.from_states(panel.states, growth=panel.growth, returns=returns)
    return full, basis


def test_criterion_zero_at_generating_parameters(testbed):
    beta0, gamma0 = 0.97, 10.0
    panel, basis = _euler_exact_panel(testbed, beta0, gamma0)
    inst = s.BasisSpec(family="hermite", k=6).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    (val,), _ = s.criterion_grid(design, instruments, beta0, gamma0)
    assert val == pytest.approx(0.0, abs=1e-16)
    (off,), _ = s.criterion_grid(design, instruments, beta0 + 0.01, gamma0 + 3.0)
    assert off > 1e-6


def test_criterion_invariant_to_instrument_reparameterization(testbed):
    # two Hermite instrument bases with different standardizations span the
    # same polynomials: an invertible linear reparameterization
    beta0, gamma0 = 0.97, 10.0
    panel, basis = _euler_exact_panel(testbed, beta0, gamma0, noise=0.02)
    mu, sd = float(panel.x0.mean()), float(panel.x0.std())
    inst_a = hermite_basis(mu, sd, 4)
    inst_b = hermite_basis(mu + 0.4 * sd, 1.8 * sd, 4)
    design = s.Design(basis, panel)
    (va,), _ = s.criterion_grid(design, s.Design(inst_a, panel), 0.96, 12.0)
    (vb,), _ = s.criterion_grid(design, s.Design(inst_b, panel), 0.96, 12.0)
    assert va == pytest.approx(vb, rel=1e-10)


def test_a_returns_series_is_one_column(testbed):
    full, basis = _euler_exact_panel(testbed, 0.97, 10.0, noise=0.02)
    r = full.returns[:, 1]
    series, column = (s.StatePanel.from_states(full.states, growth=full.growth, returns=x)
                      for x in (r, r[:, None]))
    assert series.returns.shape == (full.n, 1)
    for name in ("x0", "x1", "growth", "returns", "states"):
        np.testing.assert_array_equal(getattr(series, name), getattr(column, name))
    inst = s.BasisSpec(family="hermite", k=6).build(full.states)
    beta, gamma = [0.96, 0.97, 0.98], [8.0, 10.0, 12.0]
    values = [s.criterion_grid(s.Design(basis, p), s.Design(inst, p), beta, gamma)[0]
              for p in (series, column)]
    np.testing.assert_array_equal(values[0], values[1])


def test_criterion_needs_returns_and_small_instruments(testbed):
    panel = s.simulate_ar1(testbed, 100, np.random.default_rng(3))
    basis = s.BasisSpec(family="hermite", k=6).build(panel.states)
    with pytest.raises(ValueError, match="returns"):
        s.criterion_grid(s.Design(basis, panel), s.Design(basis, panel), 0.97, 5.0)
    with_r = s.StatePanel.from_states(
        panel.states, growth=panel.growth, returns=np.ones((panel.n, 1))
    )
    big_inst = s.BasisSpec(family="hermite", k=8).build(panel.states)
    with pytest.raises(ValueError, match="instrument"):
        s.criterion_grid(s.Design(basis, with_r), s.Design(big_inst, with_r), 0.97, 5.0)


def test_criterion_nonnegative(testbed):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, noise=0.1)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    for beta, gamma in [(0.92, 3.0), (0.97, 10.0), (0.999, 40.0)]:
        (val,), _ = s.criterion_grid(design, instruments, beta, gamma)
        assert val >= 0.0


def test_estimate_recovers_generating_parameters(testbed, monkeypatch):
    beta0, gamma0 = 0.97, 10.0
    panel, basis = _euler_exact_panel(testbed, beta0, gamma0)
    inst = s.BasisSpec(family="hermite", k=6).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    monkeypatch.setattr(calibrate, "GRID_SHAPE", (8, 10))
    res = s.estimate_preferences(design, instruments, bounds=((0.9, 0.9999), (1.0, 30.0)))
    assert res.converged
    assert abs(res.beta_hat - beta0) < 1e-3
    assert abs(res.gamma_hat - gamma0) < 1e-2
    assert res.inner_solution is not None and res.inner_solution.reason == ""
    # profiling consistency: the stored solution reproduces the criterion
    (again,), _ = s.criterion_grid(design, instruments, res.beta_hat, res.gamma_hat)
    assert again == res.criterion_value


def test_collapsed_bounds_return_the_point(testbed):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    res = s.estimate_preferences(design, instruments, bounds=((0.95, 0.95), (7.0, 7.0)))
    assert res.beta_hat == 0.95 and res.gamma_hat == 7.0
    (val,), _ = s.criterion_grid(design, instruments, 0.95, 7.0)
    assert res.criterion_value == val


def test_all_infeasible_raises(monkeypatch):
    # growth so extreme that G^(1-gamma) overflows for every gamma in the box
    states = np.linspace(0.0, 1.0, 41)
    growth = np.full(40, math.exp(-15.0))
    panel = s.StatePanel.from_states(states, growth=growth, returns=np.ones((40, 1)))
    basis = s.BasisSpec(family="hermite", k=5).build(states)
    inst = s.BasisSpec(family="hermite", k=5).build(states)
    monkeypatch.setattr(calibrate, "GRID_SHAPE", (3, 3))
    with pytest.raises(RuntimeError, match="infeasible"):
        s.estimate_preferences(
            s.Design(basis, panel), s.Design(inst, panel), bounds=((0.95, 0.99), (55.0, 60.0))
        )


def test_gamma_less_precise_than_beta(testbed, monkeypatch):
    # with noisy returns the risk-aversion estimate disperses much more
    # (relative to scale) than the discount factor
    monkeypatch.setattr(calibrate, "GRID_SHAPE", (6, 8))
    monkeypatch.setattr(calibrate, "MAX_ITER", 120)
    betas, gammas = [], []
    for rep in range(6):
        panel, basis = _euler_exact_panel(
            testbed, 0.97, 10.0, n=500, seed=100 + rep, noise=0.05
        )
        inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
        res = s.estimate_preferences(
            s.Design(basis, panel), s.Design(inst, panel), bounds=((0.9, 0.9999), (1.0, 30.0))
        )
        betas.append(res.beta_hat)
        gammas.append(res.gamma_hat)
    rel_beta = np.std(betas) / np.mean(betas)
    rel_gamma = np.std(gammas) / np.mean(gammas)
    assert rel_gamma > rel_beta


def _overflowing_panel(testbed):
    """Euler-exact panel with one extreme growth period: G^(1-gamma) overflows once gamma > 48."""
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    growth = panel.growth.copy()
    growth[5] = math.exp(-15.0)
    panel = s.StatePanel.from_states(panel.states, growth=growth, returns=panel.returns)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    return s.Design(basis, panel), s.Design(inst, panel)


def test_grid_values_equal_pointwise_criterion(testbed, monkeypatch):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    monkeypatch.setattr(calibrate, "GRID_SHAPE", (4, 5))
    res = s.estimate_preferences(design, instruments, bounds=((0.9, 0.9999), (1.0, 60.0)))
    grid = res.optimizer_trace[:20]
    pointwise = np.array([s.criterion_grid(design, instruments, b, g)[0][0] for b, g, _ in grid])
    values = np.array([v for _, _, v in grid])
    np.testing.assert_array_equal(np.isfinite(values), np.isfinite(pointwise))
    assert not np.isfinite(values).all() and np.isfinite(values).any()
    fin = np.isfinite(values)
    np.testing.assert_allclose(values[fin], pointwise[fin], rtol=1e-10, atol=0)
    # every infeasible evaluation, grid and simplex alike, is counted by its reason
    n_inf = sum(not math.isfinite(v) for _, _, v in res.optimizer_trace)
    assert sum(res.infeasible.values()) == n_inf
    assert set(res.infeasible) <= set(calibrate.INFEASIBLE_REASONS)


def test_criterion_counts_infeasible_reasons(testbed):
    design, instruments = _overflowing_panel(testbed)
    counts = Counter()
    for beta, gamma in [(1.2, 5.0), (0.97, 55.0), (0.97, 40.0), (0.97, 10.0)]:
        (val,), reasons = s.criterion_grid(design, instruments, beta, gamma)
        assert val == math.inf
        counts.update(reasons[reasons != ""].tolist())
    (val,), reasons = s.criterion_grid(design, instruments, 0.97, 1.0)
    assert math.isfinite(val)
    counts.update(reasons[reasons != ""].tolist())
    assert counts == {
        "invalid_parameters": 1, "growth_overflow": 1, "unconverged_value_recursion": 1,
        "nonpositive_continuation": 1,
    }
    values, reasons = s.criterion_grid(design, instruments, [0.97, 1.0], [1.0, 55.0])
    assert list(reasons) == ["", "invalid_parameters"] and values[1] == math.inf
    assert set(calibrate.INFEASIBLE_REASONS) == {
        "gram_not_spd", "pricing_not_finite", "invalid_parameters", "growth_overflow",
        "unconverged_value_recursion", "nonpositive_continuation",
    }


def test_grid_is_one_stacked_solve(testbed, monkeypatch):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    stacked = []
    solve_stack = calibrate.solve_value_stack

    def counted_stack(design, beta, gamma, **kw):
        stacked.append((np.size(beta), beta, gamma))
        return solve_stack(design, beta, gamma, **kw)

    monkeypatch.setattr(calibrate, "solve_value_stack", counted_stack)
    res = s.estimate_preferences(s.Design(basis, panel), s.Design(inst, panel))
    nb, ng = calibrate.GRID_SHAPE
    sizes = [size for size, _, _ in stacked]
    # one stacked solve for the grid, one column per simplex point, and the
    # one-column solve of the reported value recursion
    simplex = len(res.optimizer_trace) - nb * ng
    assert sizes[0] == nb * ng and sizes[1:] == [1] * (simplex + 1)
    assert stacked[-1][1:] == (res.beta_hat, res.gamma_hat)


def test_errors_inside_the_criterion_propagate(testbed, monkeypatch):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(calibrate, "recursive_sdf_stack", broken)
    with pytest.raises(ValueError, match="broadcast"):
        s.criterion_grid(s.Design(basis, panel), s.Design(inst, panel), 0.97, 10.0)
    with pytest.raises(ValueError, match="broadcast"):
        s.estimate_preferences(s.Design(basis, panel), s.Design(inst, panel))


def _seeded_objective(seed, case):
    """A quadratic bowl in (beta, gamma) with a seeded centre, start and box, varied by ``case``."""
    rng = np.random.default_rng(seed)
    lower, upper = np.array([0.9, 1.0]), np.array([0.9999, 60.0])
    if case == "collapsed":
        lower[0] = upper[0] = rng.uniform(0.9, 0.9999)
    centre, scale = rng.uniform(lower, upper), np.array([0.01, 5.0]) * rng.uniform(0.5, 2.0, 2)
    cut = rng.uniform(20.0, 60.0)
    x0 = upper.copy() if case == "upper" else rng.uniform(lower, upper)
    noise = np.random.default_rng(seed + 1000)

    def func(x):
        if case == "infeasible" and x[1] > cut:
            return math.inf
        z = (x - centre) / scale
        value = float(z @ z + 0.3 * z[0] * z[1])
        # noise far above FATOL: the simplex never meets the tolerances
        return value + 1e-3 * noise.uniform() if case == "unconverged" else value

    return func, x0, lower, upper


def _recorded(func, points):
    def wrapped(x):
        points.append(x.copy())
        return func(x)

    return wrapped


def _scipy_nelder_mead(func, x0, bounds):
    """scipy's bounded Nelder-Mead with calibrate's options, the reference of the port."""
    minimize = pytest.importorskip("scipy.optimize").minimize

    return minimize(func, x0=x0, method="Nelder-Mead", bounds=bounds,
                    options={"xatol": calibrate.XATOL, "fatol": calibrate.FATOL,
                             "maxiter": calibrate.MAX_ITER})


@pytest.mark.parametrize("case", ["interior", "infeasible", "upper", "collapsed", "unconverged"])
def test_nelder_mead_takes_scipys_steps(case):
    for seed in range(12):
        ours, theirs = [], []
        func, x0, lower, upper = _seeded_objective(seed, case)
        with np.errstate(invalid="ignore"):  # inf - inf in the stopping test
            x, fun, success = calibrate._nelder_mead(_recorded(func, ours), x0, lower, upper)
            func, x0, lower, upper = _seeded_objective(seed, case)
            ref = _scipy_nelder_mead(_recorded(func, theirs), x0, list(zip(lower, upper)))
        np.testing.assert_array_equal(np.array(ours), np.array(theirs))
        np.testing.assert_array_equal(x, ref.x)
        assert np.array_equal(fun, ref.fun) and success == ref.success
        if case == "upper":  # the first simplex is reflected below the upper bound
            assert (np.array(ours)[1:3] < upper).any(axis=1).all()
        if case == "collapsed":
            assert (np.array(ours)[:, 0] == lower[0]).all()
        if case == "unconverged":
            assert not success
        elif case != "infeasible":
            assert success


def test_nelder_mead_propagates_objective_errors():
    err = ValueError("operands could not be broadcast together")
    for run in (
        lambda f, x0, lo, hi: calibrate._nelder_mead(f, x0, lo, hi),
        lambda f, x0, lo, hi: _scipy_nelder_mead(f, x0, list(zip(lo, hi))),
    ):
        func, x0, lower, upper = _seeded_objective(0, "interior")
        calls = []

        def broken(x):
            calls.append(x)
            if len(calls) == 7:
                raise err
            return func(x)

        with pytest.raises(ValueError) as raised:
            run(broken, x0, lower, upper)
        assert raised.value is err and len(calls) == 7


@pytest.mark.parametrize("bounds", [calibrate.DEFAULT_BOUNDS, ((0.97, 0.97), (1.0, 60.0))])
def test_polish_equals_scipy_from_the_best_grid_point(testbed, bounds):
    # the panel of test_cli::test_calibrate_reports_infeasible_counts
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(41))
    design = s.Design(s.BasisSpec(family="hermite", k=6).build(panel.states), panel)
    m = s.fit_panel(design, s.RecursiveUtility(0.97, 10.0)).m
    panel = s.StatePanel.from_states(panel.states, growth=panel.growth,
                                     returns=np.column_stack([1.0 / m, 1.0 / m]))
    design = s.Design(design.basis, panel)
    instruments = s.Design(s.BasisSpec(family="hermite", k=6).build(panel.states), panel)
    res = s.estimate_preferences(design, instruments, bounds=bounds)
    n_grid = int(np.prod(calibrate.GRID_SHAPE))
    grid = np.array(res.optimizer_trace[:n_grid])
    assert not np.isfinite(grid[:, 2]).all()
    best = grid[int(np.argmin(np.where(np.isnan(grid[:, 2]), math.inf, grid[:, 2])))]

    polish = []

    def objective(point):
        b, g = float(point[0]), float(point[1])
        (val,), _ = s.criterion_grid(design, instruments, b, g)
        polish.append((b, g, float(val)))
        return float(val)

    ref = _scipy_nelder_mead(objective, best[:2], bounds)
    assert polish and res.optimizer_trace[n_grid:] == polish
    assert (res.beta_hat, res.gamma_hat) == (float(ref.x[0]), float(ref.x[1]))
    assert res.criterion_value == float(ref.fun)
    assert res.converged == (bool(ref.success) and math.isfinite(ref.fun))


def test_unordered_bounds_are_refused(testbed):
    design, instruments = _overflowing_panel(testbed)
    for bounds in (((0.99, 0.9), (1.0, 60.0)), ((0.9, 0.99), (60.0, 1.0))):
        with pytest.raises(ValueError, match="^bounds must be ordered$"):
            s.estimate_preferences(design, instruments, bounds=bounds)


@pytest.mark.parametrize("reason", ["unconverged_value_recursion", "gram_not_spd"])
def test_all_grid_points_infeasible_names_the_reasons(reason, testbed, monkeypatch):
    from sdfspectral import sievemat, valuefn

    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    monkeypatch.setattr(calibrate, "GRID_SHAPE", (3, 4))
    if reason == "unconverged_value_recursion":
        monkeypatch.setattr(valuefn, "MAX_ITER", 1)
    else:  # no Gram matrix of the solve design factors
        cholesky_stack = sievemat._cholesky_stack
        monkeypatch.setattr(sievemat, "_cholesky_stack",
                            lambda G: cholesky_stack(G)._replace(ok=np.zeros(len(G), bool)))
    message = ("all grid points infeasible; inner solver failed everywhere "
               f"({{'{reason}': 12}})")
    with pytest.raises(RuntimeError) as info:
        s.estimate_preferences(s.Design(basis, panel), s.Design(inst, panel))
    assert str(info.value) == message
