import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.inference import BOOTSTRAP_BLOCK, DISCARD_REASON, _replicate_rng
from sdfspectral.pipeline import DISCARD_REASONS, bootstrap_statistic

EPS = np.finfo(float).eps
LOG_SCALE = ("y", "L", "sdf_entropy", "horizon_dependence")


def _reference_replicate(panel, basis, prefs, idx):
    """One replicate refitted on its resampled panel; None when discarded."""
    rp = s.StatePanel(
        x0=panel.x0[idx],
        x1=panel.x1[idx],
        growth=None if panel.growth is None else panel.growth[idx],
        sdf_increments=None if panel.sdf_increments is None else panel.sdf_increments[idx],
    )
    design = s.Design(basis, rp)
    lam = None
    if prefs is None:
        m = rp.sdf_increments
    elif isinstance(prefs, s.PowerUtility):
        m = s.power_utility_sdf_series(rp, prefs.beta, prefs.gamma)
    else:
        fp = s.solve_value_fixed_point(design, prefs.beta, prefs.gamma)
        if not fp.converged:
            return None
        try:
            m = s.recursive_sdf_series(design, fp)
        except ValueError:
            return None
        lam = fp.lam
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, m)
    sol = s.solve_generalized(M, G, basis.const_coeffs)
    if sol.is_fallback:
        return None
    # relative condition number of rho: reordering the moment sums moves
    # rho by a few eps times this
    x, y = sol.right_coeffs, sol.left_coeffs
    kappa = (
        np.linalg.norm(x) * np.linalg.norm(y)
        * (np.linalg.norm(M, 2) + sol.rho * np.linalg.norm(G, 2))
        / (abs(y @ G @ x) * sol.rho)
    )
    entropy_l = np.log(sol.rho) - np.mean(np.log(m))
    sdf_ent = np.log(np.mean(m)) - np.mean(np.log(m))
    rec = {
        "rho": sol.rho,
        "y": -np.log(sol.rho),
        "L": entropy_l,
        "sdf_entropy": sdf_ent,
        "horizon_dependence": entropy_l - sdf_ent,
        "kappa": kappa,
        "cond_gram": np.linalg.cond(G),
    }
    if lam is not None:
        rec["lambda"] = lam
    return rec


def _compare(panel, prefs, b, seed, lambda_cond=False):
    """Batched statistic against per-replicate refits.

    lambda is compared at 1e-12 relative, or, with ``lambda_cond``, at
    eps * cond(G_r) where that is larger: at small n a replicate's Gram
    matrix can be so ill-conditioned that two exact solvers' rounding
    differs by more.
    """
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    n = panel.n
    draws = [s.stationary_bootstrap_indices(n, 6.0, _replicate_rng(seed, r)) for r in range(b)]
    counts = np.array([np.bincount(idx, minlength=n) for idx in draws])
    stat = bootstrap_statistic(s.Design(basis, panel), prefs)
    blocks = [stat(counts[lo:lo + BOOTSTRAP_BLOCK]) for lo in range(0, b, BOOTSTRAP_BLOCK)]
    batched = {key: np.concatenate([blk[key] for blk in blocks]) for key in blocks[0]}
    refs = [_reference_replicate(panel, basis, prefs, idx) for idx in draws]

    discarded = np.array([ref is None for ref in refs])
    np.testing.assert_array_equal(~np.isfinite(batched["rho"]), discarded)
    np.testing.assert_array_equal(batched[DISCARD_REASON] != "", discarded)
    assert set(batched[DISCARD_REASON][discarded]) <= set(DISCARD_REASONS)
    for r, ref in enumerate(refs):
        if ref is None:
            continue
        # 1e-12 relative, unless rho is so ill-conditioned that summing the
        # same moments in another order moves it further
        tol = max(1e-12, 32 * EPS * ref["kappa"])
        assert batched["rho"][r] == pytest.approx(ref["rho"], rel=tol, abs=0)
        # errors on a log are relative errors on its argument
        for key in LOG_SCALE:
            assert batched[key][r] == pytest.approx(ref[key], rel=0, abs=2 * tol)
        if "lambda" in ref:
            lam_tol = max(1e-12, EPS * ref["cond_gram"]) if lambda_cond else 1e-12
            assert batched["lambda"][r] == pytest.approx(ref["lambda"], rel=lam_tol, abs=0)
    return batched, discarded


def test_batched_statistic_matches_refits_power(testbed, power_prefs):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(31))
    batched, discarded = _compare(panel, power_prefs, 2 * BOOTSTRAP_BLOCK + 20, seed=7)
    assert "lambda" not in batched and not discarded.any()


def test_batched_statistic_matches_refits_sdf_column(testbed):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(32))
    m = np.exp(-0.01 - 8.0 * (panel.x1[:, 0] - 0.005) + 0.002 * panel.x0[:, 0])
    _compare(panel.with_sdf(m), None, 150, seed=8)


def test_batched_statistic_matches_refits_recursive(testbed, recursive_prefs):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(33))
    batched, _ = _compare(panel, recursive_prefs, 40, seed=9)
    assert np.isfinite(batched["lambda"]).any()


def test_batched_statistic_matches_refits_recursive_with_discards(testbed, recursive_prefs):
    # at n = 60 some resamples' continuation values are not positive on the drawn pairs
    panel = s.simulate_ar1(testbed, 60, np.random.default_rng(33))
    batched, discarded = _compare(panel, recursive_prefs, 60, seed=9, lambda_cond=True)
    assert discarded.any()
    assert "nonpositive_continuation" in set(batched[DISCARD_REASON][discarded])


def test_batched_statistic_matches_refits_with_fallbacks(testbed, power_prefs):
    # at n = 40 with k = 8 some resamples have no real positive eigenvalue
    panel = s.simulate_ar1(testbed, 40, np.random.default_rng(103))
    batched, discarded = _compare(panel, power_prefs, 400, seed=3)
    assert discarded.any()
    assert set(batched[DISCARD_REASON][discarded]) <= set(s.pfeig.FALLBACK_REASONS)


@pytest.mark.parametrize("gamma, positive", [(10.0, True), (40.0, False)])
def test_one_positivity_rule_at_every_entry_point(testbed, gamma, positive):
    # at gamma = 40 the continuation value of this n = 80 panel is about
    # -0.15 at two sample points (its maximum is about 5.3), far beyond
    # what rounding in the count-weighted solve could move
    panel = s.simulate_ar1(testbed, 80, np.random.default_rng(1))
    panel = s.StatePanel.from_states(
        panel.states, growth=panel.growth, returns=1.0 / panel.growth[:, None]
    )
    design = s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel)
    beta = 0.97
    fp = s.solve_value_fixed_point(design, beta, gamma)
    chi = np.concatenate([design.b0, design.b1]) @ fp.chi_coeffs
    assert fp.converged and (chi.min() > 0.1 if positive else chi.min() < -0.1)
    reason = "" if positive else "nonpositive_continuation"

    if positive:
        assert np.all(s.recursive_sdf_series(design, fp) > 0)
    else:
        with pytest.raises(ValueError, match="not positive on sample"):
            s.recursive_sdf_series(design, fp)
    instruments = s.Design(s.BasisSpec(family="hermite", k=4).build(panel.states), panel)
    values, reasons = s.criterion_grid(design, instruments, beta, gamma)
    assert list(reasons) == [reason] and np.isfinite(values[0]) == positive
    stat = bootstrap_statistic(design, s.RecursiveUtility(beta=beta, gamma=gamma))
    out = stat(np.ones((1, panel.n), dtype=int))
    assert list(out[DISCARD_REASON]) == [reason]
    assert np.isfinite(out["rho"][0]) == np.isfinite(out["lambda"][0]) == positive
