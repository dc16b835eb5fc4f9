import json
import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import cli
from sdfspectral.csvout import write_json
from sdfspectral.decomp import DecompSeries, _kendall_tau_b, _spearman_rho

from reference_maps import affine_power_utility_solution

RMSE_L_3200 = 0.0124
EPS = np.finfo(float).eps


def _yield(rho):
    return s.long_run_stack(rho, np.ones(3))["y"]


def test_long_run_yield_values():
    assert _yield(1.0) == 0.0
    assert _yield(0.9779) == pytest.approx(0.0223477, abs=5e-7)
    assert _yield(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError, match="positive"):
        _yield(0.0)
    with pytest.raises(ValueError, match="positive"):
        s.long_run_stack(0.9, np.array([1.0, 0.0]))


def test_permanent_entropy_trivial_and_mc():
    m = np.full(50, 0.97)
    assert s.long_run_stack(0.97, m)["L"] == pytest.approx(0.0, abs=1e-15)
    # iid lognormal: population entropy of the permanent component with
    # rho = E[m] is sigma^2/2
    rng = np.random.default_rng(31)
    sigma = 0.3
    m = np.exp(rng.normal(-0.1, sigma, 40_000))
    rho = m.mean()
    est = s.long_run_stack(rho, m)["L"]
    se = sigma**2 / math.sqrt(2 * m.size) * 3  # rough MC 3-sigma
    assert abs(est - sigma**2 / 2) < 3 * 0.005 + se


def test_permanent_entropy_matches_closed_form(power_fit, testbed, power_prefs):
    truth = affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
    est = s.long_run_stack(power_fit["eig"].rho, power_fit["m"])["L"]
    assert abs(est - truth.entropy_L) < 3 * RMSE_L_3200


def test_sdf_entropy_jensen():
    assert s.long_run_stack(1.0, np.full(9, 1.3))["sdf_entropy"] == pytest.approx(0.0, abs=1e-15)
    assert s.long_run_stack(1.0, np.array([0.5, 1.5, 1.0]))["sdf_entropy"] > 0


def test_long_run_stack_count_rows():
    # a count row's scalars are those of the sample that repeats pair t counts[t] times
    rng = np.random.default_rng(8)
    n = 50
    m = np.exp(rng.normal(-0.01, 0.2, (3, n)))
    rho = np.array([0.97, 0.99, 1.01])
    counts = np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(2)]
                      + [np.ones(n, dtype=int)])
    rows = s.long_run_stack(rho, m, counts)
    assert set(rows) == {"rho", "y", "L", "sdf_entropy", "horizon_dependence"}
    for r in range(3):
        sample = np.repeat(m[r], counts[r])
        mean_log_m = np.mean(np.log(sample))
        plain = {"rho": rho[r], "y": -math.log(rho[r]), "L": math.log(rho[r]) - mean_log_m,
                 "sdf_entropy": math.log(np.mean(sample)) - mean_log_m}
        plain["horizon_dependence"] = plain["L"] - plain["sdf_entropy"]
        for key, value in plain.items():
            assert rows[key][r] == pytest.approx(value, rel=0, abs=4 * EPS)
    # a unit-weight row is the plain series' own call, bit for bit
    one = s.long_run_stack(rho[2], m[2])
    for key, value in one.items():
        assert rows[key][2] == value


@pytest.mark.parametrize("layout", ["series", "C", "F"])
def test_long_run_stack_without_counts_weighs_every_pair_1(layout):
    # one mean formula: no counts is counts of 1, and both give np.mean's bits. The
    # (40, 1000) rows pass 256 KiB, where numpy may reuse a temporary; F is the
    # transposed layout of fit_stack's recursive SDF rows
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.9, 1.1, 40)
    m = np.exp(rng.normal(-0.01, 0.2, (1000, 40) if layout == "F" else (40, 1000)))
    m = {"series": m[0], "C": m, "F": m.T}[layout]
    rho = rho[0] if layout == "series" else rho
    plain = s.long_run_stack(rho, m)
    for key, value in s.long_run_stack(rho, m, np.ones_like(m)).items():
        assert np.array_equal(plain[key], value)
    mean_log_m = np.mean(np.log(m), axis=-1)
    assert np.array_equal(plain["L"], np.log(rho) - mean_log_m)
    assert np.array_equal(plain["sdf_entropy"], np.log(np.mean(m, axis=-1)) - mean_log_m)


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
    basis, panel, eig = power_fit["basis"], power_fit["panel"], power_fit["eig"]
    phi_t = basis.evaluate_many(panel.x0) @ eig.right
    phi_t1 = basis.evaluate_many(panel.x1) @ eig.right
    return s.pt_series(eig.rho, phi_t, phi_t1, power_fit["m"]), phi_t, phi_t1


def test_product_identity_exact(power_series):
    series, _, _ = power_series
    np.testing.assert_allclose(series.m_perm * series.m_trans, series.m, rtol=1e-12)


def test_exact_scalar_identities(power_fit, power_series):
    series, _, _ = power_series
    rho = power_fit["eig"].rho
    lr = s.long_run_stack(rho, series.m)
    assert lr["y"] == pytest.approx(-math.log(rho), rel=EPS, abs=0)
    assert lr["horizon_dependence"] == lr["L"] - lr["sdf_entropy"]
    total = lr["L"] + lr["y"] + np.mean(np.log(series.m))
    assert abs(total) < 1e-12


def test_martingale_moment_in_estimated_metric(power_fit, power_series):
    series, phi_t, _ = power_series
    basis, panel, eig = power_fit["basis"], power_fit["panel"], power_fit["eig"]
    phi_star_t = basis.evaluate_many(panel.x0) @ eig.left
    moment = np.mean(phi_star_t * (series.m_perm * phi_t - phi_t))
    assert abs(moment) < 1e-10


def test_mean_log_transitory_telescopes(power_series, power_fit):
    series, phi_t, phi_t1 = power_series
    n = series.m.size
    expected = math.log(power_fit["eig"].rho) + (
        math.log(phi_t[0]) - math.log(phi_t1[-1])
    ) / n
    assert np.mean(np.log(series.m_trans)) == pytest.approx(expected, abs=1e-12)


def test_change_of_measure(power_fit, quad_power, testbed):
    basis, panel, eig = power_fit["basis"], power_fit["panel"], power_fit["eig"]
    ones = s.change_of_measure(np.ones(4), np.ones(4))
    np.testing.assert_array_equal(ones, np.ones(4))
    b0 = basis.evaluate_many(panel.x0)
    com = s.change_of_measure(b0 @ eig.right, b0 @ eig.left)
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
    aff = affine_power_utility_solution(testbed, power_prefs.beta, power_prefs.gamma)
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
    anti = DecompSeries(m=np.ones(30), m_perm=np.exp(u), m_trans=np.exp(-u))
    stats = s.pt_association(anti)
    assert stats["corr_log"] == pytest.approx(-1.0, abs=1e-12)
    assert stats["kendall_tau"] == pytest.approx(-1.0)
    flat = DecompSeries(m=np.full(30, 0.9), m_perm=np.full(30, 1.0), m_trans=np.full(30, 0.9))
    dstats = s.pt_association(flat)
    assert dstats["cov_log"] == 0.0 and dstats["corr_log"] is None
    # exactly constant, though np.std of these five equal logs is 1.4e-17
    flat = DecompSeries(m=np.full(5, 0.9), m_perm=np.full(5, math.exp(0.1)),
                        m_trans=np.full(5, 0.9 / math.exp(0.1)))
    dstats = s.pt_association(flat)
    assert dstats["corr_log"] is None
    assert dstats["kendall_tau"] is None and dstats["spearman_rho"] is None
    text = write_json({"association": dstats})

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(text, parse_constant=reject)["association"] == dstats


def _rank_cases():
    """Seeded (x, y) pairs: continuous, rounded to 1 decimal (ties), and of length 3."""
    rng = np.random.default_rng(1966)
    for kind in ("continuous", "rounded", "three"):
        for _ in range(80):
            n = 3 if kind == "three" else int(rng.integers(4, 2000))
            x = rng.normal(size=n)
            y = rng.uniform(-0.5, 0.5) * x + rng.normal(size=n)
            yield (x, y) if kind != "rounded" else (x.round(1), y.round(1))


def test_rank_correlations_equal_scipy():
    stats = pytest.importorskip("scipy.stats")

    cases = [(x, y) for x, y in _rank_cases() if x.min() < x.max() and y.min() < y.max()]
    assert len(cases) >= 200
    for x, y in cases:
        assert _kendall_tau_b(x, y) == stats.kendalltau(x, y).statistic
        assert _spearman_rho(x, y) == stats.spearmanr(x, y).statistic


def test_kendall_tau_b_all_tied_is_nan():
    assert math.isnan(_kendall_tau_b(np.full(6, 2.0), np.arange(6.0)))
    assert math.isnan(_kendall_tau_b(np.arange(6.0), np.full(6, -1.0)))


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
    fit = s.fit_panel(s.Design(basis, panel), s.RecursiveUtility(beta=0.98, gamma=25.0))
    lr = s.long_run_stack(fit.eig.rho, fit.m)
    assert lr["horizon_dependence"] == lr["L"] - lr["sdf_entropy"]
    assert 0 < lr["horizon_dependence"] < 0.01
    assert lr["L"] > lr["sdf_entropy"] > 0


def test_csv_and_json_emission(tmp_path, power_fit, power_prefs):
    panel, fit = power_fit["panel"], power_fit["fit"]
    # the panel as the CLI reads it: row t holds X_t and the growth realized over (t-1, t]
    growth = [""] + [repr(float(g)) for g in panel.growth]
    rows = [f"{float(x)!r},{g}" for x, g in zip(np.ravel(panel.states), growth)]
    csv_path = tmp_path / "panel.csv"
    csv_path.write_text("\n".join(["x1,G", *rows]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                     "--growth-col", "G", "--basis", "hermite", "--k", "8",
                     "--preferences", "power", "--beta", repr(power_prefs.beta),
                     "--gamma", repr(power_prefs.gamma), "--out", str(out)]) == 0
    series = s.pt_series(fit.eig.rho, fit.sample.phi_t, fit.sample.phi_t1, fit.m)
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "t,m,m_perm,m_trans"
    assert len(lines) == series.m.size + 1
    # 17 significant digits round-trip losslessly
    _, m0, mp0, _ = lines[1].split(",")
    assert float(m0) == series.m[0] and float(mp0) == series.m_perm[0]
    payload = json.loads((out / "scalars.json").read_text())
    assert list(payload) == ["rho", "yield_y", "entropy_L", "sdf_entropy", "horizon_dependence",
                             "association", "n", "basis", "k", "fallback", "se_rho", "v_L",
                             "nw_bandwidth"]
    lr = s.long_run_stack(fit.eig.rho, series.m)
    assert payload["rho"] == fit.eig.rho and payload["yield_y"] == lr["y"]
    assert payload["entropy_L"] == lr["L"] and payload["sdf_entropy"] == lr["sdf_entropy"]
    assert payload["association"] == s.pt_association(series)


@pytest.mark.parametrize("call, message", [
    (lambda: s.pt_series(1.0, np.ones(3), np.ones(3), np.array([1.0, 0.0, 1.0])),
     "SDF increments must be strictly positive"),
    (lambda: s.pt_series(1.0, np.ones(3), np.ones(3), np.array([1.0, -2.0, 1.0])),
     "SDF increments must be strictly positive"),
    (lambda: s.pt_association(DecompSeries(np.ones(2), np.ones(2), np.ones(2))),
     "need at least 3 periods for association statistics"),
], ids=["m_zero", "m_negative", "two_periods"])
def test_decomposition_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
