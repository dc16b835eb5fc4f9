import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.inference import (
    BOOTSTRAP_BLOCK,
    BootstrapUnstableError,
    _newey_west,
    _replicate_rng,
)


def _const_basis_fit(m):
    # constant basis: rho-hat is the sample mean of m, phi = phi* = 1
    states = np.linspace(0.0, 1.0, m.size + 1)
    panel = s.StatePanel.from_states(states, sdf_increments=m)
    basis = s.hermite_basis_from_moments([0.0], [1.0], 0)
    design = s.Design(basis, panel)
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, m)
    sol = s.normalize(s.solve_generalized(M, G, basis.const_coeffs), G)
    return design, sol


def test_influence_zero_for_constant_sdf():
    m = np.full(40, 0.93)
    design, sol = _const_basis_fit(m)
    infl = s.influence_rho(sol, design, m)
    np.testing.assert_allclose(infl.psi_rho, 0.0, atol=1e-14)
    assert infl.v_rho == 0.0


def test_influence_mean_zero_and_delta_method(power_fit):
    sol, panel, m, design = (
        power_fit["sol"], power_fit["panel"], power_fit["m"], power_fit["design"],
    )
    infl = s.influence_rho(sol, design, m)
    assert abs(infl.psi_rho.mean()) < 1e-10
    assert infl.v_y * sol.rho**2 == pytest.approx(infl.v_rho, rel=1e-14)
    assert infl.se_rho() == pytest.approx(math.sqrt(infl.v_rho / panel.n), rel=1e-14)


def test_influence_requires_normalized_solution(power_fit):
    raw = s.solve_generalized(power_fit["M"], power_fit["G"])
    with pytest.raises(ValueError, match="normalized"):
        s.influence_rho(raw, power_fit["design"], power_fit["m"])


def test_plugin_se_estimates_asymptotic_variance(testbed, power_prefs):
    # the analytic asymptotic variance of the eigenvalue estimator on the
    # affine testbed, derived from Gaussian moment generating functions
    sx2, k, g = testbed.stationary_std**2, testbed.kappa, power_prefs.gamma
    a = -g * k / (1.0 - k)
    b = -g / (1.0 - k)
    rho = s.affine_power_utility_solution(testbed, power_prefs.beta, g).rho

    def mgf(p, q):
        return math.exp(sx2 * (p * p + q * q + 2 * k * p * q) / 2.0)

    c_pair = math.exp(-((a + b) ** 2) * sx2 / 2.0)
    pref = c_pair * power_prefs.beta * math.exp(-g * testbed.mu)
    ea2 = pref**2 * mgf(2 * b, 2 * (a - g))
    eab = pref * rho * c_pair * mgf(a + 2 * b, a - g)
    eb2 = (rho * c_pair) ** 2 * mgf(2 * (a + b), 0.0)
    v_true = ea2 - 2 * eab + eb2

    ses = []
    n = 6400
    for r in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(r,)))
        panel = s.simulate_ar1(testbed, n, rng)
        basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
        m = s.power_utility_sdf_series(panel, power_prefs.beta, power_prefs.gamma)
        design = s.Design(basis, panel)
        G = s.estimate_gram(design)
        sol = s.solve_generalized(s.estimate_pricing(design, m), G, basis.const_coeffs)
        if sol.is_fallback:
            continue
        infl = s.influence_rho(s.normalize(sol, G), design, m)
        ses.append(infl.se_rho())
    median_se = float(np.median(ses))
    assert abs(median_se - math.sqrt(v_true / n)) / math.sqrt(v_true / n) < 0.15


def test_variance_entropy_trivial_and_bandwidth_zero(power_fit):
    m = np.full(60, 0.9)
    design, sol = _const_basis_fit(m)
    infl = s.influence_rho(sol, design, m)
    assert s.variance_entropy(infl, m, 4) == pytest.approx(0.0, abs=1e-30)
    # bandwidth 0 degenerates to the sample variance of psi_L
    sol_p = power_fit["sol"]
    infl_p = s.influence_rho(sol_p, power_fit["design"], power_fit["m"])
    v0 = s.variance_entropy(infl_p, power_fit["m"], 0)
    psi_l = infl_p.psi_rho / sol_p.rho - (
        np.log(power_fit["m"]) - np.mean(np.log(power_fit["m"]))
    )
    assert v0 == pytest.approx(float(np.mean((psi_l - psi_l.mean()) ** 2)), rel=1e-12)
    assert infl_p.v_L == v0 and infl_p.lr_bandwidth == 0


def test_variance_entropy_iid_lognormal_analytic():
    # iid lognormal m with a constant basis: psi_L = m/rho - 1 - centered
    # log m, whose variance is exp(sigma^2) - 1 - sigma^2
    rng = np.random.default_rng(17)
    sigma = 0.4
    m = np.exp(rng.normal(-0.2, sigma, 40_000))
    design, sol = _const_basis_fit(m)
    infl = s.influence_rho(sol, design, m)
    v = s.variance_entropy(infl, m, s.default_bandwidth(m.size))
    analytic = math.exp(sigma**2) - 1.0 - sigma**2
    assert abs(v - analytic) / analytic < 0.20


def test_variance_entropy_bandwidth_validation(power_fit):
    infl = s.influence_rho(power_fit["sol"], power_fit["design"], power_fit["m"])
    with pytest.raises(ValueError):
        s.variance_entropy(infl, power_fit["m"], -1)
    with pytest.raises(ValueError):
        s.variance_entropy(infl, power_fit["m"], power_fit["panel"].n)


def test_newey_west_matches_direct_formula():
    rng = np.random.default_rng(23)
    x = rng.normal(size=500)
    bw = 3
    direct = np.var(x)
    for lag in range(1, bw + 1):
        w = 1 - lag / (bw + 1)
        xc = x - x.mean()
        direct += 2 * w * np.dot(xc[lag:], xc[:-lag]) / x.size
    assert _newey_west(x, bw) == pytest.approx(direct, rel=1e-12)


def test_bootstrap_indices_contract():
    rng = np.random.default_rng(7)
    idx = s.stationary_bootstrap_indices(500, 6.0, rng)
    assert idx.shape == (500,) and idx.min() >= 0 and idx.max() < 500
    # determinism under the same generator state
    again = s.stationary_bootstrap_indices(500, 6.0, np.random.default_rng(7))
    np.testing.assert_array_equal(idx, again)
    with pytest.raises(ValueError):
        s.stationary_bootstrap_indices(10, 0.5, rng)


def test_bootstrap_indices_iid_when_block_one():
    rng = np.random.default_rng(8)
    idx = s.stationary_bootstrap_indices(20_000, 1.0, rng)
    # no forced continuations: the fraction of successors equal to i+1 is
    # at chance level 1/n, far below any blocking signature
    cont = np.mean(idx[1:] == (idx[:-1] + 1) % 20_000)
    assert cont < 0.01


def test_bootstrap_mean_block_length():
    # mean realized block length over ~1e5 blocks is 6 +- 0.1
    total_blocks = 0
    total_len = 0
    r = 0
    while total_blocks < 100_000:
        idx = s.stationary_bootstrap_indices(1000, 6.0, _replicate_rng(123, r))
        restarts = np.flatnonzero(
            np.concatenate([[True], idx[1:] != (idx[:-1] + 1) % 1000])
        )
        lengths = np.diff(np.append(restarts, idx.size))
        total_blocks += lengths.size
        total_len += lengths.sum()
        r += 1
    assert abs(total_len / total_blocks - 6.0) < 0.1


def test_bootstrap_ci_constant_statistic(testbed):
    panel = s.simulate_ar1(testbed, 50, np.random.default_rng(9))
    res = s.bootstrap_ci(lambda p, w: {"c": np.full(len(w), 3.25)}, panel, 60, 6.0, 0.9, seed=5)
    assert res.ci_lo["c"] == res.ci_hi["c"] == 3.25
    assert res.discarded == 0 and res.b_total == 60


def test_bootstrap_ci_deterministic_and_order_free(testbed):
    panel = s.simulate_ar1(testbed, 120, np.random.default_rng(10))

    def stat(p, w):
        return {"mean_g": w @ p.growth / p.n}

    a = s.bootstrap_ci(stat, panel, 80, 6.0, 0.9, seed=11)
    b = s.bootstrap_ci(stat, panel, 80, 6.0, 0.9, seed=11)
    np.testing.assert_array_equal(a.replicates["mean_g"], b.replicates["mean_g"])
    assert a.ci_lo == b.ci_lo and a.ci_hi == b.ci_hi


def test_bootstrap_ci_count_rows_are_the_replicate_draws(testbed):
    # the count rows are the bincounts of replicate r's (seed, r) draws, in
    # replicate order across block boundaries
    panel = s.simulate_ar1(testbed, 90, np.random.default_rng(15))
    b = BOOTSTRAP_BLOCK + 7
    seen = []

    def stat(p, w):
        seen.append(w)
        return {"r": np.arange(len(w), dtype=float)}

    s.bootstrap_ci(stat, panel, b, 6.0, 0.9, seed=21)
    assert [len(w) for w in seen] == [BOOTSTRAP_BLOCK, 7]
    expected = [
        np.bincount(s.stationary_bootstrap_indices(90, 6.0, _replicate_rng(21, r)), minlength=90)
        for r in range(b)
    ]
    np.testing.assert_array_equal(np.concatenate(seen), expected)


def test_bootstrap_ci_smoke_tiny_panel():
    panel = s.StatePanel.from_states(np.array([0.0, 1.0, 2.0]))
    res = s.bootstrap_ci(
        lambda p, w: {"m": w @ p.x0[:, 0] / p.n}, panel, 50, 2.0, 0.9, seed=1
    )
    assert np.isfinite(res.ci_lo["m"]) and res.ci_lo["m"] <= res.ci_hi["m"]


def test_bootstrap_ci_unstable_errors(testbed):
    panel = s.simulate_ar1(testbed, 40, np.random.default_rng(13))

    def flaky(p, w):
        return {"v": np.full(len(w), np.nan)}

    with pytest.raises(BootstrapUnstableError):
        s.bootstrap_ci(flaky, panel, 60, 6.0, 0.9, seed=3)


def test_bootstrap_ci_propagates_statistic_errors(testbed):
    panel = s.simulate_ar1(testbed, 40, np.random.default_rng(13))

    def buggy(p, w):
        return {"v": undefined_name}  # noqa: F821

    with pytest.raises(NameError):
        s.bootstrap_ci(buggy, panel, 10, 6.0, 0.9, seed=3)


def test_bootstrap_ci_discards_nonfinite(testbed):
    panel = s.simulate_ar1(testbed, 60, np.random.default_rng(14))
    calls = {"k": 0}

    def sometimes(p, w):
        r = calls["k"] + 1 + np.arange(len(w))
        calls["k"] += len(w)
        return {"v": np.where(r % 3 == 0, math.nan, 1.0)}

    res = s.bootstrap_ci(sometimes, panel, 90, 6.0, 0.9, seed=4)
    assert res.discarded == 30
    assert res.replicates["v"].size == 60
    assert res.discard_reasons == {"non_finite": 30}
