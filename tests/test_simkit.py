import numpy as np
import pytest

import sdfspectral as s


def test_simulate_stationary_moments(testbed):
    panel = s.simulate_ar1(testbed, 1_000_000, np.random.default_rng(1))
    g = panel.states[:, 0]
    sd = testbed.stationary_std
    assert abs(g.mean() - testbed.mu) < 3 * sd / 1000 * 3
    assert abs(g.var() - sd**2) / sd**2 < 0.01
    ac = np.corrcoef(g[:-1], g[1:])[0, 1]
    assert abs(ac - testbed.kappa) < 0.01


def test_simulate_no_volatility_is_constant():
    design = s.Ar1Design(mu=0.007, kappa=0.4, sigma=0.0)
    panel = s.simulate_ar1(design, 50, np.random.default_rng(2))
    np.testing.assert_allclose(panel.states[:, 0], 0.007, atol=1e-15)
    np.testing.assert_allclose(panel.growth, np.exp(0.007), rtol=1e-15)


def test_simulate_deterministic_and_growth_alignment(testbed):
    a = s.simulate_ar1(testbed, 100, 77)
    b = s.simulate_ar1(testbed, 100, 77)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_allclose(a.growth, np.exp(a.states[1:, 0]), rtol=1e-15)
    with pytest.raises(ValueError):
        s.simulate_ar1(testbed, 0, 1)


def test_l2_distance_contract():
    f = np.array([1.0, 2.0, 3.0])
    assert s.l2_distance(f, f) == 0.0
    w = np.array([0.2, 0.5, 0.3])
    assert s.l2_distance(f, f - 0.7, w) == pytest.approx(0.7, rel=1e-14)
    # stacked rows: one distance per row, each equal to the row's own
    rows = np.stack([f, f - 0.7, f * 1.3])
    np.testing.assert_array_equal(s.l2_distance(rows, f, w), [s.l2_distance(r, f, w) for r in rows])
    with pytest.raises(ValueError):
        s.l2_distance(f, np.ones(2))
    with pytest.raises(ValueError):
        s.l2_distance(f, f, np.ones(2))


def test_l2_distance_polynomial_exactness():
    # Gauss-Hermite quadrature integrates (f-g)^2 exactly for polynomials:
    # with f - g = x^2 under N(0,1), the distance is sqrt(E[x^4]) = sqrt(3)
    from sdfspectral.oracle import stationary_grid

    design = s.Ar1Design(mu=0.0, kappa=0.0, sigma=1.0)
    nodes, weights = stationary_grid(design, 40)
    assert s.l2_distance(nodes**2, np.zeros_like(nodes), weights) == pytest.approx(
        np.sqrt(3.0), rel=1e-10
    )


@pytest.fixture(scope="module")
def small_table(testbed, power_prefs):
    design = s.McDesign(
        ar1=testbed,
        preferences=power_prefs,
        sample_sizes=(400, 1600),
        replications=200,
        basis_spec=s.BasisSpec(family="hermite", k=8),
        seed=1,
    )
    return design, s.run_mc_study(design)


def test_mc_table_determinism_across_workers(small_table):
    design, table = small_table
    again = s.run_mc_study(design, workers=3)
    for key, cell in table.cells.items():
        assert again.cells[key].bias == cell.bias
        assert again.cells[key].rmse == cell.rmse
    assert again.excluded == table.excluded
    assert again.se_summary == table.se_summary


def test_mc_rmse_declines_with_sample_size(small_table):
    _, table = small_table
    assert table.rmse(1600, "rho") < table.rmse(400, "rho")
    assert table.rmse(1600, "phi") < table.rmse(400, "phi")


def test_mc_table_contents(small_table):
    _, table = small_table
    stats = {stat for (_, stat) in table.cells}
    assert stats == {"rho", "y", "L", "phi", "phi_star"}
    assert table.truths["rho"] == pytest.approx(0.98935, abs=1e-4)
    for n in (400, 1600):
        assert "median_plugin_se_rho" in table.se_summary[n]
        assert table.cells[(n, "rho")].rmse >= abs(table.cells[(n, "rho")].bias)


def test_mc_half_sample_stability(small_table, testbed, power_prefs):
    design, table = small_table
    half = s.McDesign(
        ar1=testbed,
        preferences=power_prefs,
        sample_sizes=(400,),
        replications=100,
        basis_spec=s.BasisSpec(family="hermite", k=8),
        seed=1,
    )
    half_table = s.run_mc_study(half)
    # jackknife scale for the RMSE of a mean-square statistic
    full = table.rmse(400, "rho")
    assert abs(half_table.rmse(400, "rho") - full) < 0.5 * full


def test_mc_csv_and_metadata(tmp_path, small_table):
    _, table = small_table
    from sdfspectral.simkit import write_mc_outputs

    write_mc_outputs(table, tmp_path)
    lines = (tmp_path / "mc_table.csv").read_text().strip().splitlines()
    assert lines[0] == "design,basis,n,statistic,bias,rmse,replications,excluded,flagged"
    assert len(lines) == 1 + len(table.cells)
    import json

    meta = json.loads((tmp_path / "mc_table_meta.json").read_text())
    assert meta["seed"] == 1 and meta["replications"] == 200


def test_mc_design_validation(testbed, power_prefs):
    with pytest.raises(ValueError):
        s.McDesign(
            ar1=testbed, preferences=power_prefs, sample_sizes=(400,),
            replications=0, basis_spec=s.BasisSpec(family="hermite", k=8),
        )
    tiny = s.McDesign(
        ar1=testbed, preferences=power_prefs, sample_sizes=(10,),
        replications=5, basis_spec=s.BasisSpec(family="hermite", k=8),
    )
    with pytest.raises(ValueError, match="twice the sieve dimension"):
        s.run_mc_study(tiny)


def test_mc_pool_sized_by_jobs(testbed, power_prefs, monkeypatch):
    # a pool that records its size and runs the jobs in this process
    from sdfspectral import simkit

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simkit, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv(simkit.WORKERS_ENV, "64")
    design = s.McDesign(
        ar1=testbed, preferences=power_prefs, sample_sizes=(400,), replications=2,
        basis_spec=s.BasisSpec(family="hermite", k=8), seed=1,
    )
    table = s.run_mc_study(design)
    assert sizes == [2]
    assert table.cells == s.run_mc_study(design, workers=1).cells


def test_mc_censors_failed_replicates_stage_wise(testbed, recursive_prefs, monkeypatch):
    # every third fit fails after its value recursion converged: the
    # replicate is excluded and loses its eigen statistics, but keeps lambda
    from sdfspectral import simkit

    fits, fit_panel = [], simkit.fit_panel

    def fit_failing_every_third(design, preferences):
        fit = fit_panel(design, preferences)
        fits.append(fit)
        if len(fits) % 3 == 0:
            raise simkit.FitFailedError("injected", fit.fixed_point)
        return fit

    monkeypatch.setattr(simkit, "fit_panel", fit_failing_every_third)
    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(200,), replications=9,
        basis_spec=s.BasisSpec(family="hermite", k=6), seed=1,
    )
    table = s.run_mc_study(design, workers=1)
    assert table.excluded == {200: 3} and len(fits) == 9
    kept = [fit for i, fit in enumerate(fits) if i % 3 != 2]
    rho = np.array([fit.sol.rho for fit in kept])
    lam = np.array([fit.fixed_point.lam for fit in fits])
    assert table.bias(200, "rho") == np.mean(rho - table.truths["rho"])
    assert table.bias(200, "lambda") == np.mean(lam - table.truths["lambda"])
    # 3 of 9 excluded is more than 10%, but only for the eigen statistics
    assert all(table.cells[(200, st)].flagged for st in ("rho", "y", "L", "phi", "phi_star"))
    assert not any(table.cells[(200, st)].flagged for st in ("lambda", "chi"))
