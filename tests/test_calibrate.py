import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import calibrate


def _euler_exact_panel(testbed, beta, gamma, n=800, seed=41, noise=0.0):
    """Panel whose returns price exactly (R = 1/m) under the fitted SDF."""
    panel = s.simulate_ar1(testbed, n, np.random.default_rng(seed))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    fp = s.solve_value_fixed_point(design, beta, gamma)
    assert fp.converged
    m = s.recursive_sdf_series(design, fp)
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
    val = s.criterion(design, instruments, beta0, gamma0)
    assert val == pytest.approx(0.0, abs=1e-16)
    assert s.criterion(design, instruments, beta0 + 0.01, gamma0 + 3.0) > 1e-6


def test_criterion_invariant_to_instrument_reparameterization(testbed):
    # two Hermite instrument bases with different standardizations span the
    # same polynomials: an invertible linear reparameterization
    beta0, gamma0 = 0.97, 10.0
    panel, basis = _euler_exact_panel(testbed, beta0, gamma0, noise=0.02)
    mu, sd = float(panel.x0.mean()), float(panel.x0.std())
    inst_a = s.hermite_basis_from_moments([mu], [sd], 4)
    inst_b = s.hermite_basis_from_moments([mu + 0.4 * sd], [1.8 * sd], 4)
    design = s.Design(basis, panel)
    va = s.criterion(design, s.Design(inst_a, panel), 0.96, 12.0)
    vb = s.criterion(design, s.Design(inst_b, panel), 0.96, 12.0)
    assert va == pytest.approx(vb, rel=1e-10)


def test_criterion_needs_returns_and_small_instruments(testbed):
    panel = s.simulate_ar1(testbed, 100, np.random.default_rng(3))
    basis = s.BasisSpec(family="hermite", k=6).build(panel.states)
    with pytest.raises(ValueError, match="returns"):
        s.criterion(s.Design(basis, panel), s.Design(basis, panel), 0.97, 5.0)
    with_r = s.StatePanel.from_states(
        panel.states, growth=panel.growth, returns=np.ones((panel.n, 1))
    )
    big_inst = s.BasisSpec(family="hermite", k=8).build(panel.states)
    with pytest.raises(ValueError, match="instrument"):
        s.criterion(s.Design(basis, with_r), s.Design(big_inst, with_r), 0.97, 5.0)


def test_criterion_nonnegative(testbed):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, noise=0.1)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    for beta, gamma in [(0.92, 3.0), (0.97, 10.0), (0.999, 40.0)]:
        assert s.criterion(design, instruments, beta, gamma) >= 0.0


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
    assert res.inner_solution is not None and res.inner_solution.converged
    # profiling consistency: the stored solution reproduces the criterion
    again = s.criterion(design, instruments, res.beta_hat, res.gamma_hat)
    assert again == res.criterion_value


def test_collapsed_bounds_return_the_point(testbed):
    panel, basis = _euler_exact_panel(testbed, 0.97, 10.0, n=300)
    inst = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design, instruments = s.Design(basis, panel), s.Design(inst, panel)
    res = s.estimate_preferences(design, instruments, bounds=((0.95, 0.95), (7.0, 7.0)))
    assert res.beta_hat == 0.95 and res.gamma_hat == 7.0
    assert res.criterion_value == s.criterion(design, instruments, 0.95, 7.0)


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
