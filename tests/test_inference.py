import math

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.inference import (
    BOOTSTRAP_BLOCK,
    BootstrapUnstableError,
    _block_counts,
    _newey_west,
    _replicate_rngs,
)

from reference_maps import (
    affine_power_utility_solution,
    hermite_basis,
    replicate_rng,
    stationary_bootstrap_indices,
)


def _const_basis_fit(m):
    """The fit of an observed SDF column m on the constant basis.

    With the constant basis rho-hat is the sample mean of m and phi = phi* = 1.
    """
    states = np.linspace(0.0, 1.0, m.size + 1)
    panel = s.StatePanel.from_states(states, sdf_increments=m)
    basis = hermite_basis(0.0, 1.0, 0)
    return s.fit_panel(s.Design(basis, panel))


def test_influence_zero_for_constant_sdf():
    m = np.full(40, 0.93)
    on = _const_basis_fit(m).sample
    np.testing.assert_allclose(on.psi_rho, 0.0, atol=1e-14)
    assert on.v_rho == 0.0


def test_influence_mean_zero_and_delta_method(power_fit):
    eig, panel, m, design = (
        power_fit["eig"], power_fit["panel"], power_fit["m"], power_fit["design"],
    )
    on = power_fit["fit"].sample
    # psi_t = phi*(X_t) (m_t phi(X_{t+1}) - rho phi(X_t)), from the solution's coefficients
    phi_t, phi_t1 = design.b0 @ eig.right, design.b1 @ eig.right
    phi_star_t = design.b0 @ eig.left
    np.testing.assert_allclose(on.psi_rho, phi_star_t * (m * phi_t1 - eig.rho * phi_t),
                               rtol=0, atol=1e-13)
    assert abs(on.psi_rho.mean()) < 1e-10
    assert on.se_rho == pytest.approx(math.sqrt(on.v_rho / panel.n), rel=1e-14)


def test_plugin_se_estimates_asymptotic_variance(testbed, power_prefs):
    # the analytic asymptotic variance of the eigenvalue estimator on the
    # affine testbed, derived from Gaussian moment generating functions
    sx2, k, g = testbed.stationary_std**2, testbed.kappa, power_prefs.gamma
    a = -g * k / (1.0 - k)
    b = -g / (1.0 - k)
    rho = affine_power_utility_solution(testbed, power_prefs.beta, g).rho

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
        fit = s.fit_panel(s.Design(basis, panel), power_prefs)
        if fit.reason:
            continue
        ses.append(fit.sample.se_rho)
    median_se = float(np.median(ses))
    assert abs(median_se - math.sqrt(v_true / n)) / math.sqrt(v_true / n) < 0.15


def test_variance_entropy_trivial_and_bandwidth_zero(power_fit):
    m = np.full(60, 0.9)
    fit = _const_basis_fit(m)
    assert s.variance_entropy(fit.sample.psi_rho, fit.eig.rho, m, 4) == pytest.approx(0.0, abs=1e-30)
    # bandwidth 0 degenerates to the sample variance of psi_L
    rho_p = power_fit["eig"].rho
    psi_p = power_fit["fit"].sample.psi_rho
    v0 = s.variance_entropy(psi_p, rho_p, power_fit["m"], 0)
    psi_l = psi_p / rho_p - (
        np.log(power_fit["m"]) - np.mean(np.log(power_fit["m"]))
    )
    assert v0 == pytest.approx(float(np.mean((psi_l - psi_l.mean()) ** 2)), rel=1e-12)


def test_variance_entropy_iid_lognormal_analytic():
    # iid lognormal m with a constant basis: psi_L = m/rho - 1 - centered
    # log m, whose variance is exp(sigma^2) - 1 - sigma^2
    rng = np.random.default_rng(17)
    sigma = 0.4
    m = np.exp(rng.normal(-0.2, sigma, 40_000))
    fit = _const_basis_fit(m)
    v = s.variance_entropy(fit.sample.psi_rho, fit.eig.rho, m, s.default_bandwidth(m.size))
    analytic = math.exp(sigma**2) - 1.0 - sigma**2
    assert abs(v - analytic) / analytic < 0.20


def test_variance_entropy_bandwidth_validation(power_fit):
    psi, rho = power_fit["fit"].sample.psi_rho, power_fit["eig"].rho
    with pytest.raises(ValueError):
        s.variance_entropy(psi, rho, power_fit["m"], -1)
    with pytest.raises(ValueError):
        s.variance_entropy(psi, rho, power_fit["m"], power_fit["panel"].n)


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
    idx = stationary_bootstrap_indices(500, 6.0, rng)
    assert idx.shape == (500,) and idx.min() >= 0 and idx.max() < 500
    # determinism under the same generator state
    again = stationary_bootstrap_indices(500, 6.0, np.random.default_rng(7))
    np.testing.assert_array_equal(idx, again)
    with pytest.raises(ValueError):
        stationary_bootstrap_indices(10, 0.5, rng)


def test_bootstrap_indices_iid_when_block_one():
    rng = np.random.default_rng(8)
    idx = stationary_bootstrap_indices(20_000, 1.0, rng)
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
        idx = stationary_bootstrap_indices(1000, 6.0, replicate_rng(123, r))
        restarts = np.flatnonzero(
            np.concatenate([[True], idx[1:] != (idx[:-1] + 1) % 1000])
        )
        lengths = np.diff(np.append(restarts, idx.size))
        total_blocks += lengths.size
        total_len += lengths.sum()
        r += 1
    assert abs(total_len / total_blocks - 6.0) < 0.1


@pytest.mark.parametrize("seed", [0, 1, 907, 2**32, 2**64 + 3, 2**128, 2**200 + 12345])
@pytest.mark.parametrize("keys", [[(0,), (1,), (999,), (2**32 - 1,)],
                                  [(400, 0), (1600, 299), (0, 2**32 - 1), (2**32 - 1, 7)]],
                         ids=["r", "n_rep"])
def test_replicate_rngs_are_the_seed_sequence_generators(seed, keys):
    # the seed words of one to seven 32-bit words, and keys of one and two
    # words up to the largest one word holds
    gens = _replicate_rngs(seed, keys)
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        words = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64)
        np.testing.assert_array_equal(gen.bit_generator.seed_seq.generate_state(4, np.uint64),
                                      words, err_msg=f"key {key}")
        ref = replicate_rng(seed, *key)
        for draw in (lambda g: g.random(9), lambda g: g.integers(0, 800, size=9),
                     lambda g: g.standard_normal(9), lambda g: g.random(3)):
            np.testing.assert_array_equal(draw(gen), draw(ref), err_msg=f"key {key}")


@pytest.mark.parametrize("keys", [[(2**32,)], [(0,), (2**32 + 5,)], [(400, 2**40)], [(-1,)],
                                  [(2**64,)], [1, 2], [(0.5,)]])
def test_replicate_rngs_reject_a_key_word_outside_32_bits(keys):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _replicate_rngs(1, keys)


@pytest.mark.parametrize("n", [1, 2, 7, 61, 800])
def test_block_counts_equal_the_bincounts_of_the_reference_indices(n):
    # the segment-built count rows are the bincounts of the reference index
    # sequences of the same substreams, bit for bit; the last range is a
    # partial block
    for block in (1.0, 1.5, 6.0, 40.0, 1e6):
        for seed in (0, 5, 907):
            for rows in (range(0, 128), range(128, 256), range(1000, 1037)):
                expected = np.array([
                    np.bincount(stationary_bootstrap_indices(n, block, replicate_rng(seed, r)),
                                minlength=n)
                    for r in rows
                ])
                counts = _block_counts(n, block, seed, rows)
                assert counts.dtype == expected.dtype
                np.testing.assert_array_equal(counts, expected,
                                              err_msg=f"block {block}, seed {seed}, {rows}")


def test_bootstrap_ci_rejects_blocks_shorter_than_one():
    def stat(w):
        raise AssertionError("no replicate is drawn")

    with pytest.raises(ValueError, match="expected_block"):
        s.bootstrap_ci(stat, 10, 20, 0.5, 0.9, seed=1)


def test_bootstrap_ci_constant_statistic(testbed):
    panel = s.simulate_ar1(testbed, 50, np.random.default_rng(9))
    res = s.bootstrap_ci(lambda w: {"c": np.full(len(w), 3.25)}, panel.n, 60, 6.0, 0.9, seed=5)
    assert res.ci_lo["c"] == res.ci_hi["c"] == 3.25
    assert res.discarded == 0 and res.b_total == 60


def test_bootstrap_ci_deterministic_and_order_free(testbed):
    panel = s.simulate_ar1(testbed, 120, np.random.default_rng(10))

    def stat(w):
        return {"mean_g": w @ panel.growth / panel.n}

    a = s.bootstrap_ci(stat, panel.n, 80, 6.0, 0.9, seed=11)
    b = s.bootstrap_ci(stat, panel.n, 80, 6.0, 0.9, seed=11)
    np.testing.assert_array_equal(a.replicates["mean_g"], b.replicates["mean_g"])
    assert a.ci_lo == b.ci_lo and a.ci_hi == b.ci_hi


def test_bootstrap_ci_count_rows_are_the_replicate_draws(testbed):
    # the count rows are the bincounts of replicate r's (seed, r) draws, in
    # replicate order across block boundaries
    panel = s.simulate_ar1(testbed, 90, np.random.default_rng(15))
    b = BOOTSTRAP_BLOCK + 7
    seen = []

    def stat(w):
        seen.append(w)
        return {"r": np.arange(len(w), dtype=float)}

    s.bootstrap_ci(stat, panel.n, b, 6.0, 0.9, seed=21)
    assert [len(w) for w in seen] == [BOOTSTRAP_BLOCK, 7]
    expected = [
        np.bincount(stationary_bootstrap_indices(90, 6.0, replicate_rng(21, r)), minlength=90)
        for r in range(b)
    ]
    np.testing.assert_array_equal(np.concatenate(seen), expected)


def test_bootstrap_ci_smoke_tiny_panel():
    panel = s.StatePanel.from_states(np.array([0.0, 1.0, 2.0]))
    res = s.bootstrap_ci(
        lambda w: {"m": w @ panel.x0[:, 0] / panel.n}, panel.n, 50, 2.0, 0.9, seed=1
    )
    assert np.isfinite(res.ci_lo["m"]) and res.ci_lo["m"] <= res.ci_hi["m"]


def test_bootstrap_ci_unstable_errors(testbed):
    panel = s.simulate_ar1(testbed, 40, np.random.default_rng(13))

    def flaky(w):
        return {"v": np.full(len(w), np.nan)}

    with pytest.raises(BootstrapUnstableError):
        s.bootstrap_ci(flaky, panel.n, 60, 6.0, 0.9, seed=3)


def test_bootstrap_ci_propagates_statistic_errors(testbed):
    panel = s.simulate_ar1(testbed, 40, np.random.default_rng(13))

    def buggy(w):
        return {"v": undefined_name}  # noqa: F821

    with pytest.raises(NameError):
        s.bootstrap_ci(buggy, panel.n, 10, 6.0, 0.9, seed=3)


def test_bootstrap_ci_discards_nonfinite(testbed):
    panel = s.simulate_ar1(testbed, 60, np.random.default_rng(14))
    calls = {"k": 0}

    def sometimes(w):
        r = calls["k"] + 1 + np.arange(len(w))
        calls["k"] += len(w)
        return {"v": np.where(r % 3 == 0, math.nan, 1.0)}

    res = s.bootstrap_ci(sometimes, panel.n, 90, 6.0, 0.9, seed=4)
    assert res.discarded == 30
    assert res.replicates["v"].size == 60
    assert res.discard_reasons == {"non_finite": 30}


@pytest.mark.parametrize("kwargs, message", [
    ({"b": 0}, "need at least one replication"),
    ({"level": 1.0}, r"level must lie in \(0, 1\)"),
    ({"level": 0.0}, r"level must lie in \(0, 1\)"),
    ({"statistic": lambda counts: {"rho": np.zeros(len(counts) + 1)}},
     r"statistic returned shape \(3,\) for 'rho'; expected \(2,\)"),
], ids=["b_below_1", "level_1", "level_0", "statistic_shape"])
def test_bootstrap_ci_input_checks(kwargs, message):
    args = {"statistic": lambda counts: {"rho": np.ones(len(counts))}, "n": 20, "b": 2,
            "expected_block": 2.0, "level": 0.9, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        s.bootstrap_ci(**args)
