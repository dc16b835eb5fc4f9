import json
import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.cli import main

from reference_maps import affine_power_utility_solution


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
        s.quadrature_eig(testbed, power_prefs, 10)


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
    finer = s.quadrature_eig(testbed, recursive_prefs, 160)
    assert finer.lam == pytest.approx(quad_recursive.lam, rel=1e-8)
    assert finer.rho == pytest.approx(quad_recursive.rho, rel=1e-8)


def test_unsupported_sdf_spec(testbed):
    with pytest.raises(TypeError):
        s.quadrature_eig(testbed, object(), 80)


def test_non_finite_kernel_is_named():
    # at kappa = 0.99 the grid continuation value underflows at far-tail
    # nodes, so the recursive SDF chi'^beta / chi is not finite there
    design = s.Ar1Design(mu=0.005, kappa=0.99, sigma=0.01)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="kernel is not finite"):
        s.quadrature_eig(design, s.RecursiveUtility(0.994, 15.0), 80)


def test_unconverged_power_iteration_is_named(tmp_path, capsys):
    # at kappa = -0.99 the grid kernel's two largest eigenvalues are +-1.27, so
    # its power iterates alternate and never settle; the closed-form rho is 0.9248
    design = s.Ar1Design(mu=0.005, kappa=-0.99, sigma=0.01)
    assert affine_power_utility_solution(design, 0.994, 15.0).rho == pytest.approx(0.9248, abs=1e-4)
    with pytest.raises(RuntimeError, match="the oracle's Perron vector did not converge"):
        s.quadrature_eig(design, s.PowerUtility(0.994, 15.0), 80)
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"mc": {"kappa": -0.99}}))
    out = tmp_path / "o"
    status = main(["mc", "--config", str(config), "--reps", "20", "--sizes", "400",
                   "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert status == 1 and len(errors) == 1 and "oracle" in errors[0]
    assert not (out / "mc_table.csv").exists()


def test_long_run_measure_off_the_grid_is_named(tmp_path, capsys):
    # at kappa = 0.95 the eigenfunction exp(a x), a = -gamma kappa / (1 - kappa),
    # puts nearly all of the long-run measure on the outermost nodes: the
    # 80-node rho is 100.5 against 83.0 on 160 nodes
    power = s.PowerUtility(0.994, 15.0)
    with pytest.raises(ValueError, match="runs off its quadrature grid"):
        s.quadrature_eig(s.Ar1Design(mu=0.005, kappa=0.95, sigma=0.01), power, 80)
    sol = s.quadrature_eig(s.Ar1Design(mu=0.005, kappa=0.9, sigma=0.01), power, 80)
    assert sol.rho == pytest.approx(2.84051, rel=1e-5)
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"mc": {"kappa": 0.95}}))
    out = tmp_path / "o"
    status = main(["mc", "--config", str(config), "--reps", "20", "--sizes", "400",
                   "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert status == 1 and len(errors) == 1 and "quadrature grid" in errors[0]
    assert not (out / "mc_table.csv").exists()


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
        sol = s.quadrature_eig(design, prefs, 80)
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
