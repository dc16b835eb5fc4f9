"""The per-panel sieve design: one basis evaluation per point set."""

from dataclasses import replace

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


def test_recursive_decompose_evaluates_the_basis_once_per_point_set(testbed, evaluations):
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(4))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    design = s.Design(basis, panel)
    fit = s.fit_panel(design, s.RecursiveUtility(beta=0.994, gamma=15.0))
    assert fit.fixed_point.reason == "" and not fit.reason
    assert evaluations == [panel.n, panel.n]
    # each point set's values are an array of their own
    assert not np.shares_memory(design.b0, design.b1)


def test_mc_block_evaluates_the_basis_once(testbed, recursive_prefs, evaluations, monkeypatch):
    from sdfspectral import basis as basis_module

    tables, hermite_table = [], basis_module._hermite_table

    def counted_table(z, degree, out=None):
        tables.append(np.shape(z))
        return hermite_table(z, degree, out=out)

    monkeypatch.setattr(basis_module, "_hermite_table", counted_table)
    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(400,), replications=2,
        basis_spec=s.BasisSpec(family="hermite", k=8), seed=1,
    )
    table = s.run_mc_study(design)
    assert table.excluded[400] == 0
    # one Hermite table over both replicates' states X_0..X_n and the quadrature nodes
    assert tables == [(2, 401 + s.simkit.ORACLE_NODES)] and evaluations == []
    # a B-spline basis is fitted and evaluated replicate by replicate, at once
    # on the sample and the nodes
    s.run_mc_study(replace(design, basis_spec=s.BasisSpec(family="bspline", k=8)))
    assert evaluations == [401 + s.simkit.ORACLE_NODES] * 2


def test_estimate_preferences_evaluates_each_design_once(testbed, evaluations):
    panel = s.simulate_ar1(testbed, 600, np.random.default_rng(41))
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    m = s.fit_panel(s.Design(basis, panel), s.RecursiveUtility(0.97, 10.0)).m
    returns = np.column_stack([1.0 / m] * 2)
    panel = s.StatePanel.from_states(panel.states, growth=panel.growth, returns=returns)
    inst = s.BasisSpec(family="hermite", k=6).build(panel.states)
    del evaluations[:]
    res = s.estimate_preferences(s.Design(basis, panel), s.Design(inst, panel))
    assert len(evaluations) <= 4
    assert len(res.optimizer_trace) > 100
