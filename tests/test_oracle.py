import json
import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.cli import main
from sdfspectral.oracle import stationary_grid

from reference_maps import (GRID_TOL, affine_power_utility_solution, quadrature_eig,
                            transition_matrix)


def test_affine_solution_frozen_values(testbed):
    # closed form at the testbed parameters: worked by hand from the
    # Gaussian moment generating function
    sol = affine_power_utility_solution(testbed, 0.994, 15.0)
    assert sol.slope_a == pytest.approx(-22.5, abs=1e-12)
    assert sol.entropy_L == pytest.approx(0.0703125, abs=1e-12)
    assert sol.rho == pytest.approx(0.98935152836699, abs=1e-11)


def test_affine_degenerate_cases(testbed):
    risk_neutral = affine_power_utility_solution(testbed, 0.98, 0.0)
    assert risk_neutral.rho == 0.98 and risk_neutral.slope_a == 0.0
    assert risk_neutral.entropy_L == 0.0
    no_vol = affine_power_utility_solution(
        s.Ar1Design(mu=0.004, kappa=0.5, sigma=0.0), 0.99, 7.0
    )
    assert no_vol.rho == pytest.approx(0.99 * math.exp(-7.0 * 0.004), rel=1e-14)


def test_design_validation():
    with pytest.raises(ValueError):
        s.Ar1Design(mu=0.0, kappa=1.0, sigma=0.01)
    with pytest.raises(ValueError):
        s.Ar1Design(mu=0.0, kappa=0.5, sigma=-1.0)


def test_quadrature_matches_affine(testbed, quad_power):
    aff = affine_power_utility_solution(testbed, 0.994, 15.0)
    assert abs(quad_power.rho - aff.rho) / aff.rho < 1e-6
    assert quad_power.entropy_L == pytest.approx(aff.entropy_L, abs=1e-8)
    # eigenfunction shape: log phi is affine with slope a
    logs = np.log(quad_power.phi)
    slopes = np.diff(logs) / np.diff(quad_power.nodes)
    keep = np.abs(quad_power.nodes[:-1] - testbed.mu) < 4 * testbed.stationary_std
    np.testing.assert_allclose(slopes[keep], aff.slope_a, rtol=1e-6)


def test_quadrature_normalizations_and_positivity(quad_power):
    w = quad_power.weights
    assert w @ quad_power.phi**2 == pytest.approx(1.0, rel=1e-12)
    assert w @ (quad_power.phi * quad_power.phi_star) == pytest.approx(1.0, rel=1e-12)
    assert (quad_power.phi > 0).all() and (quad_power.phi_star > 0).all()
    # transition rows integrate the constant function to one
    rows = quad_power.transition.sum(axis=1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-8)


def test_quadrature_requires_enough_nodes(testbed, power_prefs):
    with pytest.raises(ValueError):
        quadrature_eig(testbed, power_prefs, 10)


def test_recursive_quadrature_closed_form(testbed, quad_recursive):
    # independent affine derivation: chi ~ exp(c1 (x - mu)) with
    # c1 = (1-gamma) kappa / (1 - beta kappa), and the eigenvalue follows
    # from the fixed-point constant and the stationary norm of h
    beta, gamma = 0.994, 15.0
    kappa, sigma, mu = testbed.kappa, testbed.sigma, testbed.mu
    sx2 = testbed.stationary_std**2
    c1 = (1 - gamma) * kappa / (1 - beta * kappa)
    c0 = ((1 - gamma) * mu + (1 - gamma) ** 2 * sigma**2 / (2 * (1 - beta * kappa) ** 2)) / (
        1 - beta
    )
    lam_closed = math.exp((1 - beta) * (c0 + c1**2 * sx2))
    assert quad_recursive.lam == pytest.approx(lam_closed, rel=1e-9)
    logs = np.log(quad_recursive.chi)
    slopes = np.diff(logs) / np.diff(quad_recursive.nodes)
    keep = np.abs(quad_recursive.nodes[:-1] - mu) < 4 * math.sqrt(sx2)
    np.testing.assert_allclose(slopes[keep], c1, rtol=1e-6)


def test_recursive_quadrature_q_doubling(testbed, recursive_prefs, quad_recursive):
    finer = quadrature_eig(testbed, recursive_prefs, 160)
    assert finer.lam == pytest.approx(quad_recursive.lam, rel=1e-8)
    assert finer.rho == pytest.approx(quad_recursive.rho, rel=1e-8)


def test_unsupported_sdf_spec(testbed):
    with pytest.raises(TypeError):
        quadrature_eig(testbed, object(), 80)


def test_non_finite_kernel_is_named():
    # at kappa = 0.99 the grid continuation value underflows at far-tail
    # nodes, so the recursive SDF chi'^beta / chi is not finite there
    design = s.Ar1Design(mu=0.005, kappa=0.99, sigma=0.01)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="kernel is not finite"):
        quadrature_eig(design, s.RecursiveUtility(0.994, 15.0), 80)


def _run_mc(tmp_path, capsys, settings: dict) -> tuple[int, dict, str]:
    """mc with 20 replicates at n = 400 under the ``mc`` config settings: its
    exit status, the truths of its mc_table_meta.json and its stderr."""
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"mc": settings}))
    out = tmp_path / "o"
    status = main(["mc", "--config", str(config), "--reps", "20", "--sizes", "400",
                   "--out", str(out)])
    meta = json.loads((out / "mc_table_meta.json").read_text())
    assert (out / "mc_table.csv").exists()
    return status, meta["truths"], capsys.readouterr().err


def test_unconverged_power_iteration_is_named(tmp_path, capsys):
    # at kappa = -0.99 the grid kernel's two largest eigenvalues are +-1.27, so
    # its power iterates alternate and never settle; the closed-form rho is 0.9248
    design = s.Ar1Design(mu=0.005, kappa=-0.99, sigma=0.01)
    assert affine_power_utility_solution(design, 0.994, 15.0).rho == pytest.approx(0.9248, abs=1e-4)
    with pytest.raises(RuntimeError, match="the oracle's Perron vector did not converge"):
        quadrature_eig(design, s.PowerUtility(0.994, 15.0), 80)
    # mc takes the closed-form truths, which no grid iteration carries
    status, truths, err = _run_mc(tmp_path, capsys, {"kappa": -0.99})
    assert status == 0 and err == ""
    aff = affine_power_utility_solution(design, 0.994, 15.0)
    assert truths["rho"] == pytest.approx(aff.rho, rel=1e-12)
    assert truths["L"] == pytest.approx(aff.entropy_L, rel=1e-12)


def test_long_run_measure_off_the_grid_is_named(tmp_path, capsys):
    # at kappa = 0.95 the eigenfunction exp(a x), a = -gamma kappa / (1 - kappa),
    # puts nearly all of the long-run measure on the outermost nodes: the
    # 80-node rho is 100.5 against 83.0 on 160 nodes
    power = s.PowerUtility(0.994, 15.0)
    with pytest.raises(ValueError, match="runs off its quadrature grid"):
        quadrature_eig(s.Ar1Design(mu=0.005, kappa=0.95, sigma=0.01), power, 80)
    sol = quadrature_eig(s.Ar1Design(mu=0.005, kappa=0.9, sigma=0.01), power, 80)
    assert sol.rho == pytest.approx(2.84051, rel=1e-5)
    # mc takes the closed-form truths, which need no grid to carry the measure
    status, truths, err = _run_mc(tmp_path, capsys, {"kappa": 0.95})
    assert status == 0 and err == ""
    aff = affine_power_utility_solution(s.Ar1Design(mu=0.005, kappa=0.95, sigma=0.01), 0.994, 15.0)
    assert aff.rho == pytest.approx(83.0117, rel=1e-6)
    assert truths["rho"] == pytest.approx(aff.rho, rel=1e-12)
    assert truths["L"] == pytest.approx(aff.entropy_L, rel=1e-12)


def _longdouble_perron_root(kernel: np.ndarray) -> np.longdouble:
    """The Perron root of a double kernel by a two-sided power iteration in long double."""
    K = kernel.astype(np.longdouble)

    def iterate(A):
        v = np.ones(A.shape[0], dtype=np.longdouble)
        for _ in range(100_000):
            nxt = A @ v
            nxt /= np.sqrt(nxt @ nxt)
            if np.sqrt(np.sum((nxt - v) ** 2)) < 1e-19:
                return nxt
            v = nxt
        raise AssertionError("the reference power iteration did not converge")

    phi, u = iterate(K), iterate(K.T)
    return (u @ (K @ phi)) / (u @ phi)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended")
@pytest.mark.parametrize("kappa", [0.6, 0.3, 0.9, -0.5, 0.0])
def test_perron_root_within_4_eps_of_extended_precision(kappa):
    # the reference iterates on the same double kernel, so this measures the
    # arithmetic error of rho alone; LAPACK's eigvals misses 4 eps on 7 of these 15
    design = s.Ar1Design(mu=0.005, kappa=kappa, sigma=0.01)
    for prefs in (s.PowerUtility(0.994, 15.0), s.PowerUtility(0.994, 5.0),
                  s.RecursiveUtility(0.994, 15.0)):
        sol = quadrature_eig(design, prefs, 80)
        ref = _longdouble_perron_root(sol.kernel)
        assert abs(np.longdouble(sol.rho) - ref) <= 4 * np.finfo(float).eps * ref, prefs


def test_long_run_one_factor_approximation(quad_power):
    # rho^-t M^t psi converges to E[psi phi*] phi geometrically in t
    w, rho = quad_power.weights, quad_power.rho
    psi = quad_power.nodes.copy()  # psi(x) = x
    target = float(w @ (psi * quad_power.phi_star)) * quad_power.phi
    cur = psi.copy()
    errs = []
    for t in range(1, 41):
        cur = quad_power.kernel @ cur
        errs.append(math.sqrt(float(w @ (cur / rho**t - target) ** 2)))
    errs = np.array(errs)
    assert errs[-1] < 1e-6 * errs[0]
    t_grid = np.arange(1, 41)
    slope, intercept = np.polyfit(t_grid, np.log(errs), 1)
    fitted = slope * t_grid + intercept
    ss_res = np.sum((np.log(errs) - fitted) ** 2)
    ss_tot = np.sum((np.log(errs) - np.log(errs).mean()) ** 2)
    assert slope < 0
    assert 1 - ss_res / ss_tot > 0.99


def test_pair_mean_and_lr_mean(quad_power):
    w, nodes = quad_power.weights, quad_power.nodes

    def pair_mean(vals_ij):
        """Stationary mean of a function of the transition pair (x_i, x_j)."""
        return float(w @ np.sum(quad_power.transition * vals_ij, axis=1))

    assert float(w @ np.ones(nodes.size)) == pytest.approx(1.0, rel=1e-12)
    assert pair_mean(np.ones((nodes.size, nodes.size))) == pytest.approx(1.0, abs=1e-8)
    # stationary mean of x' via pairs equals the stationary mean of x
    pair_vals = np.tile(nodes, (nodes.size, 1))
    assert pair_mean(pair_vals) == pytest.approx(float(w @ nodes), abs=1e-10)


# ------------------------------------------------------ the closed-form truths

EPS = np.finfo(float).eps
KAPPAS = [float(k) for k in np.linspace(-0.9, 0.9, 19)]


def _nystrom(design, prefs, sol, x: np.ndarray) -> dict[str, np.ndarray]:
    """A grid solution's phi, phi* and chi at the points x, by one step of their own equations.

    chi(x) = E[G'^(1-gamma) chi(X')^beta | x] / lambda and phi(x) = E[m phi(X') | x] / rho
    integrate over the grid from any x. The adjoint integrates backwards,
    phi*(x) = E[phi*(X) m(X, x) | X' = x] / rho, and the stationary AR(1) law is
    reversible, so the same transition matrix serves.
    """
    P = transition_matrix(design, sol.nodes, sol.weights, x)
    log_m = np.log(prefs.beta) - prefs.gamma * sol.nodes[None, :]
    log_m_back = np.log(prefs.beta) - prefs.gamma * x[:, None]
    out = {}
    if sol.lam is not None:
        out["chi"] = P @ (np.exp((1 - prefs.gamma) * sol.nodes) * sol.chi**prefs.beta) / sol.lam
        log_chi, log_chi_x = np.log(sol.chi)[None, :], np.log(out["chi"])[:, None]
        log_m = log_m + prefs.beta * log_chi - log_chi_x - np.log(sol.lam)
        log_m_back = log_m_back + prefs.beta * log_chi_x - log_chi - np.log(sol.lam)
    out["phi"] = (np.exp(log_m) * P) @ sol.phi / sol.rho
    out["phi_star"] = (np.exp(log_m_back) * P) @ sol.phi_star / sol.rho
    return out


@pytest.mark.parametrize("gamma", [2.0, 5.0, 15.0])
@pytest.mark.parametrize("prefs_type", [s.PowerUtility, s.RecursiveUtility],
                         ids=["power", "recursive"])
def test_closed_form_is_within_the_quadratures_grid_gap(prefs_type, gamma):
    # The 80-node quadrature may differ from the closed form by as much as it
    # differs from the 160-node one, plus the error its iterations stop with:
    # up to GRID_TOL in the log-scale scalars, and in the functions up to
    # 100 GRID_TOL relative (6.1e-12 measured, at recursive kappa 0.9, gamma 5).
    # The 160-node functions are carried to the 80 nodes by their own equations.
    for kappa in KAPPAS:
        design = s.Ar1Design(mu=0.005, kappa=kappa, sigma=0.01)
        prefs = prefs_type(0.994, gamma)
        coarse, fine = quadrature_eig(design, prefs, 80), quadrature_eig(design, prefs, 160)
        truth = s.closed_form_truth(design, prefs, coarse.nodes, coarse.weights)
        scalars = [(truth["y"], coarse.yield_y, fine.yield_y),
                   (truth["L"], coarse.entropy_L, fine.entropy_L)]
        if coarse.lam is not None:
            scalars.append((np.log(truth["lambda"]), np.log(coarse.lam), np.log(fine.lam)))
        for value, v80, v160 in scalars:
            assert abs(value - v80) <= abs(v80 - v160) + GRID_TOL, kappa
        keep = coarse.weights > 1e-12
        carried = _nystrom(design, prefs, fine, coarse.nodes)
        for key in carried:
            v80 = getattr(coarse, key)[keep]
            err = np.abs(truth[key][keep] - v80) / v80
            gap = np.abs(carried[key][keep] - v80) / v80
            assert np.all(err <= gap + 100 * GRID_TOL), (kappa, key, np.max(err - gap))


def test_power_truth_is_the_affine_solution():
    for gamma in (0.0, 2.0, 5.0, 15.0):
        for kappa in KAPPAS:
            design = s.Ar1Design(mu=0.005, kappa=kappa, sigma=0.01)
            nodes, weights = stationary_grid(design, 80)
            truth = s.closed_form_truth(design, s.PowerUtility(0.994, gamma), nodes, weights)
            aff = affine_power_utility_solution(design, 0.994, gamma)
            assert set(truth) == {"rho", "y", "L", "phi", "phi_star"}
            assert abs(truth["rho"] - aff.rho) <= 4 * EPS * aff.rho
            assert abs(truth["L"] - aff.entropy_L) <= 4 * EPS * aff.entropy_L
            assert truth["y"] == pytest.approx(-math.log(truth["rho"]), abs=2 * EPS)
            slopes = np.diff(np.log(truth["phi"])) / np.diff(nodes)
            np.testing.assert_allclose(slopes, aff.slope_a, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("prefs_type", [s.PowerUtility, s.RecursiveUtility],
                         ids=["power", "recursive"])
def test_closed_form_normalizations_and_positivity(testbed, prefs_type):
    # unit norms and E[phi phi*] = 1 under the stationary law, which the
    # 80-node rule integrates to rounding for these exponentials
    nodes, weights = stationary_grid(testbed, 80)
    truth = s.closed_form_truth(testbed, prefs_type(0.994, 15.0), nodes, weights)
    assert weights @ truth["phi"] ** 2 == pytest.approx(1.0, rel=1e-13)
    assert weights @ (truth["phi"] * truth["phi_star"]) == pytest.approx(1.0, rel=1e-13)
    assert (truth["phi"] > 0).all() and (truth["phi_star"] > 0).all()
    if prefs_type is s.RecursiveUtility:
        assert weights @ truth["chi"] ** 2 == pytest.approx(1.0, rel=1e-13)
        assert (truth["chi"] > 0).all()


def _forty_digits(design, prefs, nodes) -> dict:
    """The closed-form truths in 40-digit arithmetic, written as the formulas read."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    beta, gamma, mu, kappa, sigma = (mp.mpf(v) for v in (prefs.beta, prefs.gamma, design.mu,
                                                          design.kappa, design.sigma))
    var_x = sigma**2 / (1 - kappa**2)
    c = kappa * (1 - gamma) / (1 - beta * kappa) if prefs.kind == "recursive" else mp.mpf(0)
    a = (kappa * (beta * c - gamma) - c) / (1 - kappa)
    b = (beta * c - gamma - kappa * c) / (1 - kappa)
    q = a + beta * c - gamma
    A = mp.exp(-c**2 * var_x)
    lam = A ** (beta - 1) * mp.exp((1 - gamma) * mu + (1 - gamma + beta * c) ** 2 * sigma**2 / 2)
    C = beta * A ** (beta - 1) / lam if prefs.kind == "recursive" else beta
    rho = C * mp.exp(-gamma * mu + q**2 * sigma**2 / 2)
    out = {"rho": rho, "y": -mp.log(rho), "L": mp.log(rho) - mp.log(C) + gamma * mu}
    u = [mp.mpf(float(x)) - mu for x in nodes]
    out["phi"] = [mp.exp(a * x - a**2 * var_x) for x in u]
    out["phi_star"] = [mp.exp(b * x + (a**2 - (a + b) ** 2 / 2) * var_x) for x in u]
    if prefs.kind == "recursive":
        out["lambda"] = lam
        out["chi"] = [mp.exp(c * x - c**2 * var_x) for x in u]
    return out


@pytest.mark.parametrize("kappa, prefs", [
    (0.6, s.PowerUtility(0.994, 15.0)), (0.6, s.RecursiveUtility(0.994, 15.0)),
    (-0.7, s.PowerUtility(0.994, 15.0)), (0.95, s.PowerUtility(0.994, 5.0)),
    (0.95, s.PowerUtility(0.994, 15.0)), (0.9, s.RecursiveUtility(0.994, 2.0)),
])
def test_closed_form_is_within_rounding_of_forty_digits(kappa, prefs):
    # the truths of the mc designs compared between versions, a few eps
    # from the same formulas in 40 digits (the 80-node quadrature was up to
    # 4.1e-12 off, and 1.8e-6 at kappa 0.95, gamma 5)
    design = s.Ar1Design(mu=0.005, kappa=kappa, sigma=0.01)
    nodes, weights = stationary_grid(design, 80)
    truth = s.closed_form_truth(design, prefs, nodes, weights)
    exact = _forty_digits(design, prefs, nodes)
    assert set(truth) == set(exact)
    for key, value in truth.items():
        _assert_within_rounding(key, value, exact[key])


def _assert_within_rounding(key: str, value, exact) -> None:
    """value lies within 16 eps of exact, scaled by the condition of the exponential or
    logarithm it takes: 1 + |log v| for rho, lambda and the functions (their largest
    |log| over the nodes), and 1 + |v| for y and L."""
    if key in ("y", "L"):
        assert abs(value - float(exact)) <= 16 * EPS * (1 + abs(float(exact))), key
        return
    f = np.array([float(v) for v in np.atleast_1d(exact)])
    cond = 1 + np.max(np.abs(np.log(f)))
    assert np.all(np.abs(value - f) <= 16 * EPS * cond * f), key


def test_persistent_recursive_truth_is_formed_from_logarithms():
    # at kappa 0.99, gamma 15 the scale A = exp(-c^2 sigma_x^2) of chi underflows,
    # and A^(beta - 1) would divide by zero; the logarithms keep lambda and rho,
    # and the functions, which underflow on the grid, fail by name
    design, prefs = s.Ar1Design(mu=0.005, kappa=0.99, sigma=0.01), s.RecursiveUtility(0.994, 15.0)
    nodes, weights = stationary_grid(design, 80)
    with pytest.raises(ValueError, match="not finite and positive on the grid"):
        s.closed_form_truth(design, prefs, nodes, weights)
    # with no node of positive weight only the scalars are checked
    truth = s.closed_form_truth(design, prefs, nodes, np.zeros_like(weights))
    exact = _forty_digits(design, prefs, nodes[:1])
    for key in ("rho", "y", "L", "lambda"):
        _assert_within_rounding(key, truth[key], exact[key])


def test_truth_of_a_too_extreme_law_is_named():
    # sigma^2 overflows: the scalars are not finite
    design = s.Ar1Design(mu=0.005, kappa=0.5, sigma=1e200)
    nodes, weights = stationary_grid(s.Ar1Design(mu=0.005, kappa=0.5, sigma=0.01), 80)
    with pytest.raises(ValueError, match="the closed-form rho is not finite"):
        s.closed_form_truth(design, s.PowerUtility(0.994, 15.0), nodes, weights)


def test_mc_truths_are_the_closed_form_at_high_persistence(tmp_path, capsys):
    # at kappa 0.95, gamma 5 the 80-node quadrature's rho of 1.59837 was off by
    # 1.8e-6, with no sign that it was
    status, truths, err = _run_mc(tmp_path, capsys, {"kappa": 0.95, "gamma": 5.0})
    aff = affine_power_utility_solution(s.Ar1Design(mu=0.005, kappa=0.95, sigma=0.01), 0.994, 5.0)
    assert status == 0 and err == ""
    assert truths["rho"] == pytest.approx(aff.rho, rel=1e-12)
    assert truths["y"] == pytest.approx(-math.log(aff.rho), abs=1e-12)
    assert truths["L"] == pytest.approx(aff.entropy_L, abs=1e-12)
