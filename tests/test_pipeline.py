from dataclasses import replace

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import pipeline, sievemat
from sdfspectral.cli import main
from sdfspectral.inference import BOOTSTRAP_BLOCK, DISCARD_REASON
from sdfspectral.oracle import stationary_grid
from sdfspectral.pfeig import FALLBACK_REASONS, GRAM_NOT_SPD, PRICING_NOT_FINITE, _row
from sdfspectral.pipeline import DISCARD_REASONS, bootstrap_statistic, fit_stack
from sdfspectral.sievemat import CountRows, DesignStack
from sdfspectral.valuefn import VALUE_FAILURES

from reference_maps import replicate_rng, stationary_bootstrap_indices

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
    try:
        fit = s.fit_panel(design, prefs)
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        return None
    if fit.reason:
        return None
    m, rho = fit.m, fit.eig.rho
    G = s.estimate_gram(design)
    M = s.estimate_pricing(design, m)
    # relative condition number of rho: reordering the moment sums moves
    # rho by a few eps times this
    x, y = fit.eig.right, fit.eig.left
    kappa = (
        np.linalg.norm(x) * np.linalg.norm(y)
        * (np.linalg.norm(M, 2) + rho * np.linalg.norm(G, 2))
        / (abs(y @ G @ x) * rho)
    )
    entropy_l = np.log(rho) - np.mean(np.log(m))
    sdf_ent = np.log(np.mean(m)) - np.mean(np.log(m))
    rec = {
        "rho": rho,
        "y": -np.log(rho),
        "L": entropy_l,
        "sdf_entropy": sdf_ent,
        "horizon_dependence": entropy_l - sdf_ent,
        "kappa": kappa,
        "cond_gram": np.linalg.cond(G),
    }
    if fit.fixed_point is not None:
        rec["lambda"] = fit.fixed_point.lam
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
    draws = [stationary_bootstrap_indices(n, 6.0, replicate_rng(seed, r)) for r in range(b)]
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
    _compare(replace(panel, sdf_increments=m), None, 150, seed=8)


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
    fp = _row(s.solve_value_stack(design, beta, gamma), 0)
    chi = np.concatenate([design.b0, design.b1]) @ fp.chi_coeffs
    assert fp.reason == "" and (chi.min() > 0.1 if positive else chi.min() < -0.1)
    reason = "" if positive else "nonpositive_continuation"

    prefs = s.RecursiveUtility(beta=beta, gamma=gamma)
    if positive:
        assert np.all(s.fit_panel(design, prefs).m > 0)
    else:
        with pytest.raises(RuntimeError, match=reason):
            s.fit_panel(design, prefs)
    instruments = s.Design(s.BasisSpec(family="hermite", k=4).build(panel.states), panel)
    values, reasons = s.criterion_grid(design, instruments, beta, gamma)
    assert list(reasons) == [reason] and np.isfinite(values[0]) == positive
    stat = bootstrap_statistic(design, prefs)
    out = stat(np.ones((1, panel.n), dtype=int))
    assert list(out[DISCARD_REASON]) == [reason]
    assert np.isfinite(out["rho"][0]) == np.isfinite(out["lambda"][0]) == positive


#: every reason of fit_stack, in stage order
FIT_REASONS = ((GRAM_NOT_SPD,) + VALUE_FAILURES + ("nonpositive_continuation", "nonpositive_sdf")
               + (PRICING_NOT_FINITE,) + FALLBACK_REASONS + ("defective_pair",))


def _fail_at(monkeypatch, reason, bad):
    """Make replicate ``bad`` of every fit_stack call fail at the stage that ``reason`` names.

    A Gram factor is marked as it is formed, so only the designs built after this call fail
    at GRAM_NOT_SPD.
    """
    if reason == GRAM_NOT_SPD:  # the matrix did not factor
        cholesky_stack = sievemat._cholesky_stack

        def marked(G):
            factor = cholesky_stack(G)
            return factor._replace(ok=factor.ok & (np.arange(len(G)) != bad))

        monkeypatch.setattr(sievemat, "_cholesky_stack", marked)
        return
    if reason in VALUE_FAILURES or reason in FALLBACK_REASONS:
        attr = "solve_value_stack" if reason in VALUE_FAILURES else "_solve_stack"

        def mark(st):
            why = st.reason.astype(object)
            why[bad] = reason
            return st._replace(reason=why)
    elif reason == PRICING_NOT_FINITE:  # an entry of the pricing matrix overflowed
        attr = "estimate_pricing"

        def mark(M):
            M = M.copy()
            M[bad, 0, -1] = np.inf
            return M
    elif reason == "defective_pair":
        attr = "_normalize_stack"

        def mark(out):
            right, left, bad_norm, orthogonal = out
            orthogonal = orthogonal.copy()
            orthogonal[bad] = True
            return right, left, bad_norm, orthogonal
    else:  # the continuation value is not positive, or its SDF increments are not
        attr = "recursive_sdf_stack"

        def mark(out):
            m, why = (a.copy() for a in out)
            if reason == "nonpositive_continuation":
                why[bad] = reason
            else:
                m[:, bad] = 0.0
            return m, why

    original = getattr(pipeline, attr)
    monkeypatch.setattr(pipeline, attr, lambda *args, **kwargs: mark(original(*args, **kwargs)))


@pytest.mark.parametrize("reason", FIT_REASONS)
def test_each_fit_failure(reason, testbed, recursive_prefs, monkeypatch, tmp_path, capsys):
    n, bad = 300, 2
    panels = [s.simulate_ar1(testbed, n, np.random.default_rng(60 + r)) for r in range(4)]
    spec = s.BasisSpec(family="hermite", k=6)
    designs = [s.Design(spec.build(p.states), p) for p in panels]
    draws = [stationary_bootstrap_indices(n, 6.0, replicate_rng(5, r)) for r in range(4)]
    counts = np.array([np.bincount(idx, minlength=n) for idx in draws])

    def layouts(rows):  # Monte Carlo designs and bootstrap rows, factoring their Gram matrices anew
        stack = DesignStack(*(np.stack([getattr(designs[r], a) for r in rows]) for a in ("b0", "b1")),
                            np.stack([panels[r].growth for r in rows]), designs[0].const_coeffs)
        return [stack, CountRows(designs[0], counts[rows])]

    clean = [fit_stack(d, recursive_prefs) for d in layouts(range(4))]
    assert all(list(ref.reason) == [""] * 4 for ref in clean)
    others = np.arange(4) != bad
    expected = [(ref.eig.rho[others], ref.m[others]) for ref in clean]
    if reason == GRAM_NOT_SPD:
        # a replicate that is never solved leaves the others as the stack without it fits
        # them: the value recursion's count-row products are not row for row once a single
        # column iterates (gemv against gemm), so the whole stack is no bitwise reference
        expected = [(ref.eig.rho, ref.m)
                    for ref in (fit_stack(d, recursive_prefs) for d in layouts(np.flatnonzero(others)))]

    # inside a larger stack, the replicate fails alone
    _fail_at(monkeypatch, reason, bad)
    for design, (rho, m) in zip(layouts(range(4)), expected):
        fit = fit_stack(design, recursive_prefs)
        assert list(fit.reason) == ["", "", reason, ""]
        assert np.isnan(fit.eig.rho[bad]) and np.isnan(fit.eig.right[bad]).all()
        np.testing.assert_array_equal(fit.eig.rho[others], rho)
        np.testing.assert_array_equal(fit.m[others], m)
        if reason in VALUE_FAILURES or reason.startswith("nonpositive_") or reason == GRAM_NOT_SPD:
            # a replicate's SDF increments are ones where they could not be formed
            np.testing.assert_array_equal(fit.m[bad], np.ones(n))

    # the single fit: the constant fallback, or a RuntimeError naming the reason
    monkeypatch.undo()
    _fail_at(monkeypatch, reason, 0)
    design = s.Design(designs[0].basis, panels[0])
    if reason in FALLBACK_REASONS:
        fit = pipeline.fit_panel(design, recursive_prefs)
        assert fit.reason == reason and fit.eig.rho == 1.0
        assert fit.fixed_point.reason == "" and np.isnan(fit.sample.se_rho)
        np.testing.assert_array_equal(fit.sample.phi_t, np.ones(n))
    else:
        with pytest.raises(RuntimeError, match=reason):
            pipeline.fit_panel(design, recursive_prefs)

    # the decompose command exits 2 on a fallback and 1 on any other failure
    csv_path = tmp_path / "panel.csv"
    states = panels[0].states[:, 0]
    csv_path.write_text("\n".join(
        ["x1,G", format(states[0], ".17g") + ","]
        + [f"{x:.17g},{g:.17g}" for x, g in zip(states[1:], panels[0].growth)]) + "\n")
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--preferences", "recursive",
                   "--beta", str(recursive_prefs.beta), "--gamma", str(recursive_prefs.gamma),
                   "--basis", "hermite", "--k", "6", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if reason in FALLBACK_REASONS:
        assert status == 2 and "fell back" in err and reason in err
    else:
        assert status == 1 and err.startswith("error:") and reason in err


def test_rows_that_overflow_fail_the_value_recursion_alone(testbed, recursive_prefs):
    # b(X_{t+1}) enters the value-recursion map and the pricing matrix but not G: under
    # recursive preferences a replicate whose b1 is not finite is never iterated and
    # fails as PRICING_NOT_FINITE, not as an unconverged recursion
    n, bad = 300, 2
    panels = [s.simulate_ar1(testbed, n, np.random.default_rng(60 + r)) for r in range(4)]
    spec = s.BasisSpec(family="hermite", k=6)
    designs = [s.Design(spec.build(p.states), p) for p in panels]
    b1 = np.stack([d.b1 for d in designs])
    b1[bad, -1, 0] = np.inf

    def stack(rows):
        return DesignStack(np.stack([designs[r].b0 for r in rows]), b1[rows],
                           np.stack([panels[r].growth for r in rows]), designs[0].const_coeffs)

    fit = fit_stack(stack(np.arange(4)), recursive_prefs)
    assert list(fit.reason) == ["", "", PRICING_NOT_FINITE, ""]
    fp = fit.fixed_point
    assert fp.reason[bad] == PRICING_NOT_FINITE and fp.iterations[bad] == 0
    assert np.isnan(fp.lam[bad]) and np.isnan(fit.eig.rho[bad])
    np.testing.assert_array_equal(fit.m[bad], np.ones(n))
    # the others fit as the stack without it fits them
    others = np.flatnonzero(np.arange(4) != bad)
    ref = fit_stack(stack(others), recursive_prefs)
    assert list(ref.reason) == ["", "", ""]
    np.testing.assert_array_equal(fit.eig.rho[others], ref.eig.rho)
    np.testing.assert_array_equal(fit.fixed_point.lam[others], ref.fixed_point.lam)
    np.testing.assert_array_equal(fit.m[others], ref.m)

    # one design: the point fit, a calibration point and every count row name it
    panel = s.StatePanel.from_states(panels[0].states, growth=panels[0].growth,
                                     returns=1.0 / panels[0].growth[:, None])
    design = s.Design(designs[0].basis, panel)
    design.b1 = design.b1.copy()
    design.b1[-1, 0] = np.inf
    with pytest.raises(RuntimeError, match=f"no usable fit: {PRICING_NOT_FINITE}$"):
        pipeline.fit_panel(design, recursive_prefs)
    instruments = s.Design(s.BasisSpec(family="hermite", k=4).build(panel.states), panel)
    values, reasons = s.criterion_grid(design, instruments, recursive_prefs.beta,
                                       [recursive_prefs.gamma, 5.0])
    assert list(reasons) == [PRICING_NOT_FINITE] * 2 and np.all(values == np.inf)
    out = bootstrap_statistic(design, recursive_prefs)(np.ones((3, n), dtype=int))
    assert list(out[DISCARD_REASON]) == [PRICING_NOT_FINITE] * 3
    assert np.isnan(out["rho"]).all() and np.isnan(out["lambda"]).all()


def test_each_gram_matrix_is_factored_once(testbed, power_prefs, recursive_prefs, monkeypatch):
    # one Cholesky factor per Gram matrix per fit serves the value recursion
    # and the eigensolve
    from sdfspectral import simkit

    nodes = stationary_grid(testbed, simkit.ORACLE_NODES)[0]
    factored = []
    cholesky = np.linalg.cholesky

    def counting(a):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(41))
    design = s.Design(s.BasisSpec(family="hermite", k=6).build(panel.states), panel)
    s.fit_panel(design, recursive_prefs)
    assert sum(factored) == 1
    rng = np.random.default_rng(42)
    counts = np.array([np.bincount(stationary_bootstrap_indices(design.n, 6.0, rng),
                                   minlength=design.n) for _ in range(7)])
    bootstrap_statistic(design, recursive_prefs)(counts)
    assert sum(factored) == 1 + 7
    for prefs in (power_prefs, recursive_prefs):
        factored.clear()
        mc = s.McDesign(ar1=testbed, preferences=prefs, sample_sizes=(300,), replications=5,
                        basis_spec=s.BasisSpec(family="hermite", k=6), seed=1)
        simkit._run_block(mc, 300, range(5), nodes)  # one block of five
        assert sum(factored) == 5


def test_fit_without_an_sdf_column_or_preferences(testbed):
    panel = s.simulate_ar1(testbed, 60, np.random.default_rng(3))
    design = s.Design(s.BasisSpec(family="hermite", k=4).build(panel.states), panel)
    for layout in (design, CountRows(design, np.ones((2, panel.n)))):
        with pytest.raises(ValueError, match="^panel has no SDF column and no preferences were given$"):
            fit_stack(layout)
