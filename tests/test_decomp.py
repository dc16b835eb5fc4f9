import json
import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.decomp import DecompSeries, scalars_to_json, series_to_csv
from sdfspectral.pipeline import decompose_panel

RMSE_L_3200 = 0.0124


def test_long_run_yield_values():
    assert s.long_run_yield(1.0) == 0.0
    assert s.long_run_yield(0.9779) == pytest.approx(0.0223477, abs=5e-7)
    assert s.long_run_yield(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        s.long_run_yield(0.0)


def test_permanent_entropy_trivial_and_mc():
    m = np.full(50, 0.97)
    assert s.permanent_entropy(0.97, m) == pytest.approx(0.0, abs=1e-15)
    # iid lognormal: population entropy of the permanent component with
    # rho = E[m] is sigma^2/2
    rng = np.random.default_rng(31)
    sigma = 0.3
    m = np.exp(rng.normal(-0.1, sigma, 40_000))
    rho = m.mean()
    est = s.permanent_entropy(rho, m)
    se = sigma**2 / math.sqrt(2 * m.size) * 3  # rough MC 3-sigma
    assert abs(est - sigma**2 / 2) < 3 * 0.005 + se


def test_permanent_entropy_matches_closed_form(power_fit, testbed, power_prefs):
    truth = s.affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    est = s.permanent_entropy(power_fit["sol"].rho, power_fit["m"])
    assert abs(est - truth.entropy_L) < 3 * RMSE_L_3200


def test_sdf_entropy_jensen():
    assert s.sdf_entropy(np.full(9, 1.3)) == pytest.approx(0.0, abs=1e-15)
    assert s.sdf_entropy(np.array([0.5, 1.5, 1.0])) > 0


def test_pt_series_trivial_cases():
    m = np.array([0.9, 1.1, 1.0])
    ones = np.ones(3)
    series = s.pt_series(0.95, ones, ones, m)
    np.testing.assert_allclose(series.m_perm, m / 0.95, rtol=1e-15)
    np.testing.assert_allclose(series.m_trans, np.full(3, 0.95), rtol=1e-15)
    const = s.pt_series(0.95, ones, ones, np.full(3, 0.95))
    np.testing.assert_allclose(const.m_perm, ones, rtol=1e-15)
    np.testing.assert_allclose(const.m_perm * const.m_trans, const.m, rtol=1e-15)


def test_pt_series_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError, match="not positive"):
        s.pt_series(0.9, np.array([1.0, -1.0, 1.0]), ones, ones)
    with pytest.raises(ValueError):
        s.pt_series(-0.5, ones, ones, ones)
    with pytest.raises(ValueError, match="aligned"):
        s.pt_series(0.9, ones, ones, np.ones(4))


@pytest.fixture(scope="module")
def power_series(power_fit):
    basis, panel, sol = power_fit["basis"], power_fit["panel"], power_fit["sol"]
    phi_t = basis.evaluate_many(panel.x0) @ sol.right_coeffs
    phi_t1 = basis.evaluate_many(panel.x1) @ sol.right_coeffs
    return s.pt_series(sol.rho, phi_t, phi_t1, power_fit["m"]), phi_t, phi_t1


def test_product_identity_exact(power_series):
    series, _, _ = power_series
    np.testing.assert_allclose(series.m_perm * series.m_trans, series.m, rtol=1e-12)


def test_exact_scalar_identities(power_series):
    series, _, _ = power_series
    assert series.yield_y == -math.log(series.rho)
    assert series.horizon_dependence == series.entropy_L - series.sdf_entropy
    total = series.entropy_L + series.yield_y + np.mean(np.log(series.m))
    assert abs(total) < 1e-12


def test_martingale_moment_in_estimated_metric(power_fit, power_series):
    series, phi_t, _ = power_series
    basis, panel, sol = power_fit["basis"], power_fit["panel"], power_fit["sol"]
    phi_star_t = basis.evaluate_many(panel.x0) @ sol.left_coeffs
    moment = np.mean(phi_star_t * (series.m_perm * phi_t - phi_t))
    assert abs(moment) < 1e-10


def test_mean_log_transitory_telescopes(power_series, power_fit):
    series, phi_t, phi_t1 = power_series
    n = series.m.size
    expected = math.log(series.rho) + (
        math.log(phi_t[0]) - math.log(phi_t1[-1])
    ) / n
    assert np.mean(np.log(series.m_trans)) == pytest.approx(expected, abs=1e-12)


def test_change_of_measure(power_fit, quad_power, testbed):
    basis, panel, sol = power_fit["basis"], power_fit["panel"], power_fit["sol"]
    ones = s.change_of_measure(np.ones(4), np.ones(4))
    np.testing.assert_array_equal(ones, np.ones(4))
    b0 = basis.evaluate_many(panel.x0)
    com = s.change_of_measure(b0 @ sol.right_coeffs, b0 @ sol.left_coeffs)
    assert com.mean() == pytest.approx(1.0, abs=1e-10)
    # sample-point correlation with the quadrature density ratio
    phi_o = np.interp(panel.x0[:, 0], quad_power.nodes, quad_power.phi)
    phi_star_o = np.interp(panel.x0[:, 0], quad_power.nodes, quad_power.phi_star)
    assert np.corrcoef(com, phi_o * phi_star_o)[0, 1] > 0.95


def test_association_statistics(power_series, quad_power, testbed, power_prefs):
    series, _, _ = power_series
    stats = s.pt_association(series)
    assert set(stats) == {"cov_log", "corr_log", "kendall_tau", "spearman_rho"}
    # population sign of the log-components covariance for the affine
    # design, computed from the joint normality of (x_t, x_{t+1})
    aff = s.affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    a, g = aff.slope_a, power_prefs.gamma
    sx2, k = testbed.stationary_std**2, testbed.kappa
    # log m_trans = const + a(d0 - d1); log m_perm = const - g*d1 - a(d0 - d1)
    var_diff = 2 * sx2 * (1 - k)
    cov_d1_diff = sx2 * (k - 1)
    pop_cov = a * (-g * cov_d1_diff) - a**2 * var_diff
    assert np.sign(stats["cov_log"]) == np.sign(pop_cov)
    assert -1.0 <= stats["kendall_tau"] <= 1.0


def test_association_degenerate_and_antithetic():
    u = np.random.default_rng(5).normal(size=30)
    anti = DecompSeries(
        m=np.ones(30), m_perm=np.exp(u), m_trans=np.exp(-u),
        rho=1.0, yield_y=0.0, entropy_L=0.0, sdf_entropy=0.0, horizon_dependence=0.0,
    )
    stats = s.pt_association(anti)
    assert stats["corr_log"] == pytest.approx(-1.0, abs=1e-12)
    assert stats["kendall_tau"] == pytest.approx(-1.0)
    flat = DecompSeries(
        m=np.full(30, 0.9), m_perm=np.full(30, 1.0), m_trans=np.full(30, 0.9),
        rho=0.9, yield_y=0.2, entropy_L=0.0, sdf_entropy=0.0, horizon_dependence=0.0,
    )
    dstats = s.pt_association(flat)
    assert dstats["cov_log"] == 0.0 and dstats["corr_log"] is None


def test_bivariate_recursive_pipeline_horizon_dependence():
    # bivariate state calibrated near quarterly US consumption/dividend
    # growth dynamics; horizon dependence should be a small positive
    # fraction of the permanent-component entropy
    rng = np.random.default_rng(61)
    n = 1200
    g = np.empty(n + 1)
    d = np.empty(n + 1)
    g[0], d[0] = 0.005, 0.005
    for t in range(n):
        g[t + 1] = 0.005 + 0.3 * (g[t] - 0.005) + 0.005 * rng.standard_normal()
        d[t + 1] = 0.005 + 0.2 * (d[t] - 0.005) + 0.012 * rng.standard_normal()
    states = np.column_stack([g, d])
    panel = s.StatePanel.from_states(states, growth=np.exp(g[1:]))
    basis = s.BasisSpec(family="sparse", degree=4, cap=5).build(states)
    assert basis.dimension_k == 15
    res = decompose_panel(s.Design(basis, panel), s.RecursiveUtility(beta=0.98, gamma=25.0))
    series = res.series
    assert series.horizon_dependence == series.entropy_L - series.sdf_entropy
    assert 0 < series.horizon_dependence < 0.01
    assert series.entropy_L > series.sdf_entropy > 0


def test_csv_and_json_emission(tmp_path, power_series):
    series, _, _ = power_series
    csv_path = tmp_path / "series.csv"
    json_path = tmp_path / "scalars.json"
    series_to_csv(series, csv_path)
    scalars_to_json(series, json_path, association=s.pt_association(series))
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,m,m_perm,m_trans"
    assert len(rows) == series.m.size + 1
    # 17 significant digits round-trip losslessly
    t, m, mp, mt = rows[1].split(",")
    assert float(m) == series.m[0] and float(mp) == series.m_perm[0]
    payload = json.loads(json_path.read_text())
    assert payload["rho"] == series.rho
    assert "association" in payload
