import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdfspectral as s
from sdfspectral.oracle import population_nonlinear_map, population_sieve_matrices


def _linear_basis():
    # b(x) = (1, x): probabilists' Hermite with identity standardization
    return s.hermite_basis_from_moments([0.0], [1.0], 1)


def _const_basis():
    return s.hermite_basis_from_moments([0.0], [1.0], 0)


def test_gram_constant_basis():
    panel = s.StatePanel.from_states(np.array([0.3, -0.1, 0.7]))
    np.testing.assert_allclose(s.estimate_gram(s.Design(_const_basis(), panel)), [[1.0]])


def test_gram_hand_sum():
    panel = s.StatePanel.from_states(np.array([0.0, 2.0, 5.0]))
    G = s.estimate_gram(s.Design(_linear_basis(), panel))
    np.testing.assert_allclose(G, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_gram_warns_when_underdetermined():
    panel = s.StatePanel.from_states(np.linspace(0.0, 1.0, 4))
    basis = s.hermite_basis_from_moments([0.5], [0.3], 4)
    with pytest.warns(UserWarning) as records:
        s.estimate_gram(s.Design(basis, panel))
    messages = [str(r.message) for r in records]
    assert any("below basis dimension" in msg for msg in messages)
    assert any("numerically singular" in msg for msg in messages)


def test_pricing_requires_sdf():
    panel = s.StatePanel.from_states(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="sdf_increments"):
        s.estimate_pricing(s.Design(_linear_basis(), panel), panel.sdf_increments)


def test_pricing_constant_sdf_factors_out():
    states = np.random.default_rng(3).normal(size=12)
    base = s.StatePanel.from_states(states)
    m1 = np.ones(base.n)
    design = s.Design(_linear_basis(), base)
    M1 = s.estimate_pricing(design, m1)
    M3 = s.estimate_pricing(design, 3.0 * m1)
    np.testing.assert_allclose(M3, 3.0 * M1, rtol=1e-14)


def test_pricing_constant_basis_gives_mean():
    states = np.random.default_rng(4).normal(size=9)
    m = np.random.default_rng(5).uniform(0.5, 1.5, 8)
    panel = s.StatePanel.from_states(states, sdf_increments=m)
    np.testing.assert_allclose(
        s.estimate_pricing(s.Design(_const_basis(), panel), m), [[m.mean()]], rtol=1e-14
    )


def test_pricing_linearity_exact():
    rng = np.random.default_rng(6)
    states = rng.normal(size=40)
    base = s.StatePanel.from_states(states)
    m1 = rng.uniform(0.5, 1.5, 39)
    m2 = rng.uniform(0.5, 1.5, 39)
    a, b = 0.7, 1.9
    basis = s.hermite_basis_from_moments([0.0], [1.0], 3)
    design = s.Design(basis, base)
    lhs = s.estimate_pricing(design, a * m1 + b * m2)
    rhs = a * s.estimate_pricing(design, m1) + b * s.estimate_pricing(design, m2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_pricing_rejects_nonpositive_sdf():
    states = np.zeros(5) + np.arange(5.0)
    with pytest.raises(ValueError, match="strictly positive"):
        s.StatePanel.from_states(states, sdf_increments=np.array([1.0, -1.0, 1.0, 1.0]))


def test_constant_span_identity(testbed):
    # m = 1 makes the pricing matrix act like the Gram on the constant
    panel = s.simulate_ar1(testbed, 500, np.random.default_rng(7))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, np.ones(panel.n))
    c1 = basis.const_coeffs
    np.testing.assert_allclose(M @ c1, G @ c1, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_apply_nonlinear_homogeneity(a):
    rng = np.random.default_rng(8)
    states = rng.normal(0.0, 1.0, 31)
    panel = s.StatePanel.from_states(states, growth=np.exp(states[1:]))
    basis = s.hermite_basis_from_moments([0.0], [1.0], 3)
    beta = 0.97
    v = rng.normal(size=4)
    t_map = s.value_map(s.Design(basis, panel), beta, 5.0)
    lhs = t_map(a * v)
    rhs = a**beta * t_map(v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_apply_nonlinear_gamma_one_constant_direction(testbed):
    panel = s.simulate_ar1(testbed, 200, np.random.default_rng(9))
    basis = s.BasisSpec(family="hermite", k=6).build(panel.states)
    out = s.value_map(s.Design(basis, panel), 0.9, 1.0)(basis.const_coeffs)
    b0 = basis.evaluate_many(panel.x0)
    np.testing.assert_allclose(out, b0.mean(axis=0), rtol=1e-12)


def test_apply_nonlinear_requires_growth():
    panel = s.StatePanel.from_states(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="growth"):
        s.value_map(s.Design(_linear_basis(), panel), 0.9, 2.0)(np.array([1.0, 0.0]))


def test_large_sample_matches_quadrature_oracle(testbed, power_prefs, quad_power):
    # the sample moments converge to the population moments computed by an
    # independent quadrature discretization of the operator
    # degree kept low: the variance of squared high-degree Hermite summands
    # makes tight entrywise agreement need astronomically many draws
    panel = s.simulate_ar1(testbed, 2_000_000, np.random.default_rng(10))
    basis = s.hermite_basis_from_moments(
        [testbed.mu], [testbed.stationary_std], 3
    )
    m = s.power_utility_sdf_series(panel, power_prefs.beta, power_prefs.gamma)
    design = s.Design(basis, panel)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, m)
    G_pop, M_pop = population_sieve_matrices(quad_power.operator, basis)
    np.testing.assert_allclose(G, G_pop, atol=0.02)
    np.testing.assert_allclose(M, M_pop, atol=0.05)

    t_map, _ = population_nonlinear_map(testbed, basis, 0.994, 15.0, 80)
    v = basis.const_coeffs + 0.05 * np.eye(4)[2]
    sample_t = s.value_map(design, 0.994, 15.0)(v)
    np.testing.assert_allclose(sample_t, t_map(v), atol=0.05)


def test_panel_validation_and_resample():
    states = np.arange(6.0)
    with pytest.raises(ValueError, match="non-finite"):
        s.StatePanel.from_states(np.array([0.0, np.inf, 1.0]))
    with pytest.raises(ValueError, match="length"):
        s.StatePanel.from_states(states, growth=np.ones(3))
    panel = s.StatePanel.from_states(
        states, growth=np.ones(5) * 1.01, returns=np.ones((5, 2))
    )
    sub = panel.resample(np.array([4, 0, 2]))
    assert sub.n == 3 and sub.states is None
    np.testing.assert_array_equal(sub.x0[:, 0], [4.0, 0.0, 2.0])
    np.testing.assert_array_equal(sub.x1[:, 0], [5.0, 1.0, 3.0])
    assert sub.returns.shape == (3, 2)


def test_sieve_matrices_bundle(testbed):
    panel = s.simulate_ar1(testbed, 100, np.random.default_rng(11))
    basis = s.BasisSpec(family="hermite", k=5).build(panel.states)
    design = s.Design(basis, panel.with_sdf(np.ones(panel.n)))
    assert design.b0.shape == design.b1.shape == (100, 5) and design.n == 100
    np.testing.assert_allclose(design.gram, design.gram.T, atol=1e-15)
