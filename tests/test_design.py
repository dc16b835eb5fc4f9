"""The per-panel sieve design: row resampling, and one basis evaluation per point set."""

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.basis import SieveBasis


@pytest.fixture
def evaluations(monkeypatch):
    """Number of rows of every SieveBasis.evaluate_many call, in call order."""
    calls = []
    original = SieveBasis.evaluate_many

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(SieveBasis, "evaluate_many", counted)
    return calls


@pytest.mark.parametrize(
    "spec, dim",
    [
        (s.BasisSpec(family="hermite", k=8), 1),
        (s.BasisSpec(family="bspline", k=7), 1),
        (s.BasisSpec(family="sparse", degree=3, cap=4), 2),
    ],
)
def test_resample_is_the_design_of_the_resampled_panel(spec, dim, evaluations):
    rng = np.random.default_rng(12)
    states = 0.005 + 0.01 * np.cumsum(rng.standard_normal((301, dim)), axis=0) / 3.0
    panel = s.StatePanel.from_states(
        states, growth=np.exp(states[1:, 0]), returns=np.exp(0.01 * rng.standard_normal((300, 2)))
    )
    design = s.Design(spec.build(panel.states), panel)
    idx = s.stationary_bootstrap_indices(panel.n, 6.0, rng)
    del evaluations[:]
    rep = design.resample(idx)
    assert evaluations == []  # rows are selected, not evaluated again
    fresh = s.Design(design.basis, panel.resample(idx))
    for name in ("b0", "b1", "gram"):
        np.testing.assert_array_equal(getattr(rep, name), getattr(fresh, name))
    for name in ("x0", "x1", "growth", "returns"):
        np.testing.assert_array_equal(getattr(rep.panel, name), getattr(fresh.panel, name))
    assert rep.n == fresh.n == panel.n and rep.basis is design.basis


def test_recursive_decompose_evaluates_the_basis_once_per_point_set(testbed, evaluations):
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(4))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    res = s.decompose_panel(s.Design(basis, panel), s.RecursiveUtility(beta=0.994, gamma=15.0))
    assert res.fit.fixed_point.converged and not res.fit.sol.is_fallback
    assert evaluations == [panel.n, panel.n]


def test_mc_replicate_evaluates_the_basis_three_times(testbed, recursive_prefs, evaluations):
    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(400,), replications=2,
        basis_spec=s.BasisSpec(family="hermite", k=8), seed=1,
    )
    table = s.run_mc_study(design, workers=1)
    assert table.excluded[400] == 0
    # per replicate: the sample's X_t and X_{t+1}, then the quadrature nodes
    assert evaluations == [400, 400, s.simkit.ORACLE_NODES] * 2


def test_estimate_preferences_evaluates_each_design_once(testbed, evaluations):
    panel = s.simulate_ar1(testbed, 600, np.random.default_rng(41))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    fp = s.solve_value_fixed_point(design, 0.97, 10.0)
    returns = np.column_stack([1.0 / s.recursive_sdf_series(design, fp)] * 2)
    panel = s.StatePanel.from_states(panel.states, growth=panel.growth, returns=returns)
    inst = s.BasisSpec(family="hermite", k=6).build(panel.states)
    del evaluations[:]
    res = s.estimate_preferences(s.Design(basis, panel), s.Design(inst, panel))
    assert len(evaluations) <= 4
    assert len(res.optimizer_trace) > 100
