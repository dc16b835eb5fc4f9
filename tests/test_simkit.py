import json
import math
import warnings

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import cli, simkit
from sdfspectral.pfeig import _row

from reference_maps import replicate_rng


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


def _lfilter_paths(design, n, rngs):
    """The paths by scipy's order-1 filter, drawn as simkit draws them."""
    lfilter = pytest.importorskip("scipy.signal").lfilter

    draws = np.empty((len(rngs), n + 1))
    for row, rng in zip(draws, rngs):
        row[0] = rng.standard_normal()
        row[1:] = rng.standard_normal(n)
    dev = np.empty_like(draws)
    dev[:, 0] = design.stationary_std * draws[:, 0]
    shocks = design.sigma * draws[:, 1:]
    dev[:, 1:] = lfilter([1.0], [1.0, -design.kappa], shocks, axis=-1,
                         zi=design.kappa * dev[:, :1])[0]
    return design.mu + dev


@pytest.mark.parametrize("kappa", [-0.7, 0.0, 0.6, 0.95])
def test_ar1_paths_equal_lfilter_bit_for_bit(kappa):
    design = s.Ar1Design(mu=0.005, kappa=kappa, sigma=0.01)
    for R in (1, 2, 300):
        for n in (1, 2, 1601):
            def rngs():
                return [np.random.default_rng((R, n, r)) for r in range(R)]

            paths = simkit._ar1_paths(design, n, rngs())
            assert paths.shape == (R, n + 1) and paths.flags.c_contiguous
            np.testing.assert_array_equal(paths, _lfilter_paths(design, n, rngs()))
    np.testing.assert_array_equal(s.simulate_ar1(design, 1601, 5).states[:, 0],
                                  _lfilter_paths(design, 1601, [np.random.default_rng(5)])[0])


def _arrays(records):
    """The (R, 5) scalars and the (R, 3, nodes) functions of keyed records, in _SCALARS and
    _FUNCS order, after checking that the records hold exactly those keys."""
    assert list(records) == [*simkit._SCALARS, *simkit._FUNCS]
    return (np.column_stack([records[s] for s in simkit._SCALARS]),
            np.stack([records[f] for f in simkit._FUNCS], axis=1))


def test_path_chunks_give_the_rows_of_one_chunk(testbed, power_prefs, monkeypatch):
    # blocks of 3 replicates, and chunks of 2 blocks: 20 replicates make 4 chunks
    design = s.McDesign(ar1=testbed, preferences=power_prefs, sample_sizes=(60,),
                        replications=20, basis_spec=s.BasisSpec(family="hermite", k=6), seed=4)
    nodes = s.quadrature_eig(testbed, power_prefs, simkit.ORACLE_NODES).nodes
    monkeypatch.setattr(simkit, "MC_BLOCK_ELEMENTS", 3 * 61 * 6)
    fit_block, paths = simkit._fit_block, simkit._ar1_paths

    def run(path_elements):
        monkeypatch.setattr(simkit, "MC_PATH_ELEMENTS", path_elements)
        rows, chunks = [], []

        def recorded_block(design, states, nodes, work):
            assert states.flags.c_contiguous
            rows.append(states.copy())
            return fit_block(design, states, nodes, work)

        def recorded_paths(ar1, n, rngs):
            chunks.append(len(rngs))
            return paths(ar1, n, rngs)

        monkeypatch.setattr(simkit, "_fit_block", recorded_block)
        monkeypatch.setattr(simkit, "_ar1_paths", recorded_paths)
        records = simkit._run_block(design, 60, range(20), nodes)
        return records, np.concatenate(rows), chunks, [len(r) for r in rows]

    whole, whole_rows, whole_chunks, whole_blocks = run(simkit.MC_PATH_ELEMENTS)
    parts, part_rows, part_chunks, part_blocks = run(6 * 61)
    assert whole_chunks == [20] and part_chunks == [6, 6, 6, 2]
    assert whole_blocks == part_blocks == [3, 3, 3, 3, 3, 3, 2]
    np.testing.assert_array_equal(part_rows, whole_rows)
    for field, joined in zip(_arrays(whole), _arrays(parts)):
        np.testing.assert_array_equal(field, joined)


def test_l2_distance_contract():
    f = np.array([1.0, 2.0, 3.0])
    assert s.l2_distance(f, f, np.ones(3)) == 0.0
    w = np.array([0.2, 0.5, 0.3])
    assert s.l2_distance(f, f - 0.7, w) == pytest.approx(0.7, rel=1e-14)
    # stacked rows: one distance per row, each equal to the row's own
    rows = np.stack([f, f - 0.7, f * 1.3])
    np.testing.assert_array_equal(s.l2_distance(rows, f, w), [s.l2_distance(r, f, w) for r in rows])
    with pytest.raises(ValueError):
        s.l2_distance(f, np.ones(2), np.ones(2))
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


def test_mc_rmse_declines_with_sample_size(small_table):
    _, table = small_table
    assert table.cells[(1600, "rho")].rmse < table.cells[(400, "rho")].rmse
    assert table.cells[(1600, "phi")].rmse < table.cells[(400, "phi")].rmse


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
    full = table.cells[(400, "rho")].rmse
    assert abs(half_table.cells[(400, "rho")].rmse - full) < 0.5 * full


def test_mc_csv_and_metadata(tmp_path, small_table):
    design, table = small_table
    # the mc command's defaults are the small table's design
    assert cli.main(["mc", "--design", "power", "--basis", "hermite", "--k", "8",
                     "--reps", str(design.replications), "--sizes", "400,1600",
                     "--seed", str(design.seed), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mc_table.csv").read_text().strip().splitlines()
    assert lines[0] == "design,basis,n,statistic,bias,rmse,replications,excluded,flagged"
    assert len(lines) == 1 + len(table.cells)
    rows = [line.split(",") for line in lines[1:]]
    rmse = {(int(row[2]), row[3]): float(row[5]) for row in rows}
    assert rmse == {key: cell.rmse for key, cell in table.cells.items()}
    meta = json.loads((tmp_path / "mc_table_meta.json").read_text())
    assert meta["seed"] == 1 and meta["replications"] == 200


def test_one_replicate_has_no_mc_sd_and_no_warning(testbed, power_prefs):
    # a sample standard deviation needs two replicates
    design = s.McDesign(
        ar1=testbed, preferences=power_prefs, sample_sizes=(400,), replications=1,
        basis_spec=s.BasisSpec(family="hermite", k=6), seed=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = s.run_mc_study(design)
    assert table.excluded == {400: 0}
    assert math.isnan(table.se_summary[400]["mc_sd_rho"])
    assert math.isfinite(table.se_summary[400]["median_plugin_se_rho"])


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


@pytest.mark.parametrize("spec, k", [(s.BasisSpec(family="sparse", degree=6, cap=5), 5),
                                     (s.BasisSpec(family="hermite", k=8, degree=3), 4)])
def test_mc_sieve_dimension_is_that_of_the_built_basis(spec, k, testbed, power_prefs, monkeypatch):
    # a sparse sieve drops the degrees at or above its cap, and a Hermite
    # degree overrides k: n = 12 is at least 2k, and a block holds 3 replicates
    blocks = []
    fit_block = simkit._fit_block

    def recorded(design, states, nodes, work):
        blocks.append(len(states))
        return fit_block(design, states, nodes, work)

    monkeypatch.setattr(simkit, "_fit_block", recorded)
    monkeypatch.setattr(simkit, "MC_BLOCK_ELEMENTS", 3 * 13 * k)
    design = s.McDesign(ar1=testbed, preferences=power_prefs, sample_sizes=(12,),
                        replications=8, basis_spec=spec, seed=1)
    assert spec.build(np.arange(5.0)).dimension_k == k
    assert s.run_mc_study(design).k == k
    assert blocks == [3, 3, 2]


@pytest.mark.parametrize("spec", [s.BasisSpec(family="hermite", k=6),
                                  s.BasisSpec(family="bspline", k=6)], ids=["hermite", "bspline"])
def test_block_where_no_basis_builds_is_censored_whole(spec, testbed, power_prefs):
    design = s.McDesign(ar1=testbed, preferences=power_prefs, sample_sizes=(40,),
                        replications=3, basis_spec=spec, seed=1)
    nodes = np.linspace(-0.02, 0.03, 5)
    states = np.full((3, 41), 0.005)  # constant paths: no sample variance, tied knots
    width = 41 + nodes.size
    work = (np.empty((6, 3, width)), np.empty((3, width, 6)))
    scalars, funcs = _arrays(simkit._fit_block(design, states, nodes, work))
    assert scalars.shape == (3, len(simkit._SCALARS))
    assert funcs.shape == (3, len(simkit._FUNCS), nodes.size)
    assert np.isnan(scalars).all() and np.isnan(funcs).all()


def test_mc_censors_failed_replicates_stage_wise(testbed, recursive_prefs, monkeypatch):
    # every third eigensolve of the stack is rejected after its value
    # recursion converged: the replicate is excluded and loses its eigen
    # statistics, but keeps lambda
    from sdfspectral import pipeline

    fits, lams = [], []
    solve_stack, solve_value_stack = pipeline._solve_stack, pipeline.solve_value_stack

    def solve_failing_every_third(M, factor):
        st = solve_stack(M, factor)
        fits.extend(st.rho)
        reason = st.reason.copy()
        reason[2::3] = "residual"
        return st._replace(reason=reason)

    def recorded_value_stack(*args, **kwargs):
        fp = solve_value_stack(*args, **kwargs)
        lams.extend(fp.lam)
        return fp

    monkeypatch.setattr(pipeline, "_solve_stack", solve_failing_every_third)
    monkeypatch.setattr(pipeline, "solve_value_stack", recorded_value_stack)
    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(200,), replications=9,
        basis_spec=s.BasisSpec(family="hermite", k=6), seed=1,
    )
    table = s.run_mc_study(design)
    assert table.excluded == {200: 3} and len(fits) == 9
    rho = np.array([r for i, r in enumerate(fits) if i % 3 != 2])
    lam = np.array(lams)
    assert table.cells[(200, "rho")].bias == np.mean(rho - table.truths["rho"])
    assert table.cells[(200, "lambda")].bias == np.mean(lam - table.truths["lambda"])
    # 3 of 9 excluded is more than 10%, but only for the eigen statistics
    assert all(table.cells[(200, st)].flagged for st in ("rho", "y", "L", "phi", "phi_star"))
    assert not any(table.cells[(200, st)].flagged for st in ("lambda", "chi"))


def _reference_record(design, n, rep, nodes):
    """One replicate's record from its own panel and Design, fitted by the single-fit
    pipeline, with the long-run scalars by their plain formulas. Under recursive
    preferences the value recursion is solved on its own, and kept where it converged
    whatever the later stages do."""
    panel = s.simulate_ar1(design.ar1, n, replicate_rng(design.seed, n, rep))
    scalars, funcs = np.full(5, np.nan), np.full((3, nodes.size), np.nan)
    prefs = design.preferences
    try:
        sieve = s.Design(design.basis_spec.build(panel.states), panel)
        b_nodes = sieve.basis.evaluate_many(nodes)
        if isinstance(prefs, s.RecursiveUtility):
            fp = _row(s.solve_value_stack(sieve, prefs.beta, prefs.gamma), 0)
            if not fp.reason:
                scalars[3], funcs[2] = fp.lam, b_nodes @ fp.chi_coeffs
        fit = s.fit_panel(sieve, prefs)
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        return True, scalars, funcs
    if fit.reason:
        return True, scalars, funcs
    rho = fit.eig.rho
    scalars[[0, 1, 2, 4]] = (rho, -math.log(rho), math.log(rho) - np.mean(np.log(fit.m)),
                             fit.sample.se_rho)
    funcs[0], funcs[1] = b_nodes @ fit.eig.right, b_nodes @ fit.eig.left
    return False, scalars, funcs


#: (preferences, basis spec, n, replications, seed); the recursive case
#: censors two replicates after their value recursion converged
STACK_CASES = {
    "power_hermite": ("power", s.BasisSpec(family="hermite", k=8), 400, 24, 1),
    "recursive_hermite": ("recursive", s.BasisSpec(family="hermite", k=8), 300, 24, 3),
    "power_bspline": ("power", s.BasisSpec(family="bspline", k=8), 400, 24, 11),
    "power_sparse": ("power", s.BasisSpec(family="sparse", degree=6, cap=5), 400, 24, 2),
}


def _stack_case(name, testbed, power_prefs, recursive_prefs):
    kind, spec, n, reps, seed = STACK_CASES[name]
    prefs = power_prefs if kind == "power" else recursive_prefs
    design = s.McDesign(ar1=testbed, preferences=prefs, sample_sizes=(n,), replications=reps,
                        basis_spec=spec, seed=seed)
    return design, n, reps, s.quadrature_eig(testbed, prefs, simkit.ORACLE_NODES).nodes


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_stacked_records_equal_per_replicate_fits(name, testbed, power_prefs, recursive_prefs):
    design, n, reps, nodes = _stack_case(name, testbed, power_prefs, recursive_prefs)
    scalars, funcs = _arrays(simkit._run_block(design, n, range(reps), nodes))
    ref = [_reference_record(design, n, rep, nodes) for rep in range(reps)]
    failed = np.isnan(scalars[:, 0])  # a failed fit has no rho
    np.testing.assert_array_equal(failed, [r[0] for r in ref])
    if name == "recursive_hermite":
        assert failed.sum() == 2 and not np.isnan(scalars[:, 3]).any()
    np.testing.assert_allclose(scalars, [r[1] for r in ref], rtol=1e-12, atol=0)
    np.testing.assert_allclose(funcs, [r[2] for r in ref], rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind, k", [("power", 8), ("recursive", 6)])
def test_records_do_not_read_stale_work_buffers(kind, k, testbed, power_prefs, recursive_prefs,
                                                 monkeypatch):
    # blocks of 4, 4 and 2 replicates: each block finds its two work buffers all
    # zeros or all NaN/inf, and no record reads what a block did not write
    prefs = power_prefs if kind == "power" else recursive_prefs
    design = s.McDesign(ar1=testbed, preferences=prefs, sample_sizes=(300,), replications=10,
                        basis_spec=s.BasisSpec(family="hermite", k=k), seed=2)
    nodes = s.quadrature_eig(testbed, prefs, simkit.ORACLE_NODES).nodes
    monkeypatch.setattr(simkit, "MC_BLOCK_ELEMENTS", 4 * 301 * k)
    fit_block = simkit._fit_block

    def run(fill):
        blocks = []

        def filled(design, states, nodes, work):
            assert len(work) == 2
            for buf in work:
                buf[...] = np.resize(fill, buf.shape)
            blocks.append(len(states))
            return fit_block(design, states, nodes, work)

        monkeypatch.setattr(simkit, "_fit_block", filled)
        records = _arrays(simkit._run_block(design, 300, range(10), nodes))
        assert blocks == [4, 4, 2]
        return records

    zeros, garbage = run([0.0]), run([np.nan, np.inf, -np.inf])
    assert not np.isnan(zeros[0][:, 0]).all()
    for field, ref in zip(garbage, zeros):
        np.testing.assert_array_equal(field, ref)


def test_mc_records_do_not_depend_on_blocks(testbed, recursive_prefs, monkeypatch):
    # k = 6 and n = 300: some pencils of a block have complex eigenvalues
    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(300,), replications=30,
        basis_spec=s.BasisSpec(family="hermite", k=6), seed=3,
    )
    nodes = s.quadrature_eig(testbed, recursive_prefs, simkit.ORACLE_NODES).nodes
    whole = _arrays(simkit._run_block(design, 300, range(30), nodes))
    assert np.isnan(whole[0][:, 0]).any()
    for block_elements in (1, 4 * 301 * 6, 7 * 301 * 6):
        monkeypatch.setattr(simkit, "MC_BLOCK_ELEMENTS", block_elements)
        for edges in ((0, 30), (0, 11, 30), (0, 1, 17, 30)):  # contiguous replicate ranges
            parts = [_arrays(simkit._run_block(design, 300, range(lo, hi), nodes))
                     for lo, hi in zip(edges[:-1], edges[1:])]
            for field, joined in zip(whole, (np.concatenate(p) for p in zip(*parts))):
                np.testing.assert_array_equal(field, joined)


@pytest.mark.parametrize("stage", ["basis", "gram", "value_recursion", "eigen"])
def test_one_failing_replicate_is_censored_alone(stage, testbed, recursive_prefs, monkeypatch):
    from sdfspectral import pipeline, sievemat

    design = s.McDesign(
        ar1=testbed, preferences=recursive_prefs, sample_sizes=(300,), replications=6,
        basis_spec=s.BasisSpec(family="hermite", k=8), seed=1,
    )
    nodes = s.quadrature_eig(testbed, recursive_prefs, simkit.ORACLE_NODES).nodes
    clean = _arrays(simkit._run_block(design, 300, range(6), nodes))
    assert not np.isnan(clean[0][:, 0]).any()
    bad = 2  # the replicate whose stage fails, in a block of all six
    if stage == "basis":  # a constant state path has zero variance
        paths = simkit._ar1_paths

        def one_constant_path(ar1, n, rngs):
            states = paths(ar1, n, rngs)
            states[bad] = 0.0
            return states

        monkeypatch.setattr(simkit, "_ar1_paths", one_constant_path)
    elif stage == "gram":  # not positive definite even after the ridge, in the block's one stack
        cholesky_stack = sievemat._cholesky_stack

        def one_not_spd(G):
            factor = cholesky_stack(G)
            return factor._replace(ok=factor.ok & (np.arange(len(G)) != bad))

        monkeypatch.setattr(sievemat, "_cholesky_stack", one_not_spd)
    else:
        owner, attr = ((pipeline, "solve_value_stack") if stage == "value_recursion"
                       else (pipeline, "_solve_stack"))
        original = getattr(owner, attr)
        reject = "unconverged_value_recursion" if stage == "value_recursion" else "residual"

        def failing_at_bad(*args, **kwargs):
            st = original(*args, **kwargs)
            reason = st.reason.copy()
            reason[bad] = reject
            return st._replace(reason=reason)

        monkeypatch.setattr(owner, attr, failing_at_bad)
    scalars, funcs = _arrays(simkit._run_block(design, 300, range(6), nodes))
    assert list(np.flatnonzero(np.isnan(scalars[:, 0]))) == [bad]
    others = np.arange(6) != bad
    for field, ref in zip((scalars, funcs), clean):
        np.testing.assert_array_equal(field[others], ref[others])
    # lambda and chi survive only a failure after the value recursion
    kept = [3] if stage == "eigen" else []
    assert list(np.flatnonzero(~np.isnan(scalars[bad]))) == kept
    assert np.isnan(funcs[bad, :2]).all() and np.isnan(funcs[bad, 2]).all() != (stage == "eigen")


def test_non_finite_simulated_growth_is_refused():
    design = s.McDesign(ar1=s.Ar1Design(mu=1000.0, kappa=0.6, sigma=0.01),
                        preferences=s.PowerUtility(0.994, 15.0), sample_sizes=(40,),
                        replications=2, basis_spec=s.BasisSpec(family="hermite", k=4))
    message = "^simulated growth is not finite and positive; the AR\\(1\\) law is too extreme$"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        simkit._run_block(design, 40, range(2), np.linspace(-1.0, 1.0, 5))
