"""Metamorphic relations: invariances of the estimate that need no reference solution.

The sieve estimate depends on the sieve space and the data, not on how
they are written down. Each test below changes how the data are written
and checks that the estimate moves as the theory says, within a bound
argued in its docstring from where the arithmetic can round.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdfspectral as s
from sdfspectral.inference import DISCARD_REASON, _block_counts
from sdfspectral.pipeline import bootstrap_statistic, fit_stack
from sdfspectral.sievemat import CountRows

EPS = np.finfo(float).eps
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(40, 800)
#: the AR(1) law and the preferences of the conftest fixtures
TESTBED = s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01)
BETA, GAMMA = 0.994, 15.0


def _relative_condition(design, fit) -> np.ndarray:
    """kappa(rho) = |x| |y| (|M|_2 + rho |G|_2) / (|y'Gx| rho) of each replicate of ``fit``.

    A perturbation of M and G by a relative eps moves rho by at most about
    eps * kappa(rho) relative. ``design`` is the fit's Design or CountRows.
    """
    G = design.gram.reshape((-1,) + design.gram.shape[-2:])
    M = s.estimate_pricing(design, fit.m)
    x, y, rho = fit.eig.right, fit.eig.left, fit.eig.rho
    return (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
            * (np.linalg.norm(M, 2, axis=(1, 2)) + rho * np.linalg.norm(G, 2, axis=(1, 2)))
            / (np.abs(np.einsum("ri,rij,rj->r", y, G, x)) * rho))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=SIZES, j=st.sampled_from([-2, 2]))
def test_scaling_the_sdf_by_four_to_the_i_scales_rho_exactly(seed, n, j):
    """Scaling an observed SDF column by 2^j, j even, scales rho-hat by 2^j and leaves phi-hat bit for bit.

    Multiplying m by a power of two is exact, so every term of the
    pricing matrix M, and M itself, is scaled exactly, while G and its
    factor are unchanged; the whitened matrix A = L^-1 M L^-' is scaled
    exactly too. LAPACK's nonsymmetric eigensolver is homogeneous in A
    (balancing by powers of two, Householder reflections and QR sweeps
    whose every rounding is relative) except where it takes the square
    root of one scaled quantity, as in the standardization of a 2 x 2
    block. For even j that root is scaled by 2^(j/2) exactly, so the
    eigenvalues scale by 2^j and the unit eigenvectors do not change;
    the coefficients are then normalized against the same G, so phi-hat
    and phi-hat* on the sample are the same bits. For odd j the root is
    scaled by an irrational factor and rounds differently, and the
    relation does not hold bit for bit (rho-hat moves by an ulp on about
    one panel in eleven), so odd j are not tested.
    """
    rng = np.random.default_rng(seed)
    panel = s.simulate_ar1(TESTBED, n, rng)
    m = BETA * panel.growth ** -GAMMA
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)

    def fit(scale):
        return fit_stack(s.Design(basis, s.StatePanel.from_states(panel.states,
                                                                  sdf_increments=m * scale)))

    base = fit(1.0)
    assume(base.reason[0] == "")
    scaled = fit(2.0**j)
    assert scaled.reason[0] == ""
    assert scaled.eig.rho[0] == base.eig.rho[0] * 2.0**j
    np.testing.assert_array_equal(scaled.sample.phi_t, base.sample.phi_t)
    np.testing.assert_array_equal(scaled.sample.phi_star_t, base.sample.phi_star_t)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, j=st.sampled_from([-2, 2, 4]))
def test_scaling_the_sdf_scales_each_bootstrap_rho_exactly(seed, n, j):
    """Scaling an observed SDF column by 2^j, j even, scales each kept count row's rho by 2^j.

    The relation of the single fit above holds per bootstrap replicate.
    Count row r's pricing matrix sums the terms w_rt m_t b(X_t) b(X_{t+1})'
    with integer counts w_rt, so scaling m by a power of two scales every
    term, every sum and M_r itself exactly, while G_r and its factor do not
    depend on m. The eigensolve of each pencil is then homogeneous as
    argued above, so rho scales by 2^j and the unit eigenvectors, the
    normalized coefficients and their defects do not change. Of the
    acceptance rules, the tie and residual rules compare quantities that
    scale by 2^j on both sides (the residual bound's square roots are of
    quantities scaled by 4^j, whose roots scale by 2^j exactly). Reality
    and the adjoint match add an absolute 1e-8 to their relative test, but
    what they test is either exactly zero or a few ulps (the imaginary
    part of a real eigenvalue, the adjoint's copy of rho) or of the order
    of the eigenvalue spacing, on either side of 1e-8 by far more than
    the factor of at most 16 that the scaling moves it; so every row keeps
    its DISCARD_REASON entry.
    """
    rng = np.random.default_rng(seed)
    panel = s.simulate_ar1(TESTBED, n, rng)
    m = BETA * panel.growth ** -GAMMA
    basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
    counts = _block_counts(n, 6.0, seed, range(64))

    def stat(scale):
        panel_m = s.StatePanel.from_states(panel.states, sdf_increments=m * scale)
        return bootstrap_statistic(s.Design(basis, panel_m), None)(counts)

    base, scaled = stat(1.0), stat(2.0**j)
    np.testing.assert_array_equal(scaled[DISCARD_REASON], base[DISCARD_REASON])
    kept = base[DISCARD_REASON] == ""
    np.testing.assert_array_equal(scaled["rho"][kept], base["rho"][kept] * 2.0**j)


#: the bound on the relative move of rho-hat, in units of eps * kappa(rho)
SWAP_BOUND = 32


@pytest.mark.parametrize("prefs", [s.PowerUtility(BETA, GAMMA), s.RecursiveUtility(BETA, GAMMA)],
                         ids=["power", "recursive"])
@pytest.mark.parametrize("spec", [s.BasisSpec(family="hermite", degree=2),
                                  s.BasisSpec(family="sparse", degree=3, cap=3)],
                         ids=["hermite_degree_2", "sparse_degree_3_cap_3"])
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=SIZES)
def test_swapping_the_state_coordinates_keeps_rho(spec, prefs, seed, n):
    """Swapping the two coordinates of a bivariate state moves rho-hat by at most 32 eps kappa(rho).

    Each coordinate is standardized on its own and each basis function is
    a product of the same univariate factors, so the swap permutes the
    columns of the basis values b(X_t) bit for bit. Every entry of G and
    M is then a sum of the same n terms, which BLAS may add in another
    order at its new position: a relative perturbation of a few eps. The
    eigensolver is backward stable on each of the two permuted pencils,
    adding a few eps more. Together they move rho-hat by a small multiple
    of eps * kappa(rho), and 32 is the multiple that the batched
    bootstrap tests allow for reordered moment sums. Under recursive
    preferences the value recursions of the two runs iterate on permuted
    rows; their normalized iteration contracts rounding errors, so as
    long as both stop at the same iteration (checked) their SDF
    increments differ by a few eps, which the same bound covers.
    """
    rng = np.random.default_rng(seed)
    x1 = s.simulate_ar1(TESTBED, n, rng).states[:, 0]
    x2 = s.simulate_ar1(s.Ar1Design(mu=0.0, kappa=0.3, sigma=0.02), n, rng).states[:, 0]
    growth = np.exp(x1[1:])

    def fit(states):
        design = s.Design(spec.build(states), s.StatePanel.from_states(states, growth=growth))
        return design, fit_stack(design, prefs)

    design, base = fit(np.column_stack([x1, x2]))
    _, swapped = fit(np.column_stack([x2, x1]))
    assert swapped.reason[0] == base.reason[0]
    assume(base.reason[0] == "")
    if base.fixed_point is not None:
        assert swapped.fixed_point.iterations[0] == base.fixed_point.iterations[0]
    rho, kappa = base.eig.rho[0], _relative_condition(design, base)[0]
    assert abs(swapped.eig.rho[0] - rho) <= SWAP_BOUND * EPS * kappa * rho


@pytest.mark.parametrize("spec", [s.BasisSpec(family="hermite", degree=2),
                                  s.BasisSpec(family="sparse", degree=3, cap=3)],
                         ids=["hermite_degree_2", "sparse_degree_3_cap_3"])
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=SIZES)
def test_swapping_the_state_coordinates_keeps_each_bootstrap_rho(spec, seed, n):
    """Swapping a bivariate state's coordinates moves each kept count row's rho by at most 32 eps kappa(rho).

    The relation of the single fit above holds per bootstrap replicate
    under power preferences. The swap permutes the columns of b(X_t) and
    b(X_{t+1}) bit for bit, and m = beta G^-gamma does not depend on the
    state, so count row r's G_r = sum_t w_rt b(X_t) b(X_t)'/n and
    M_r = sum_t w_rt m_t b(X_t) b(X_{t+1})'/n are, entry by entry, the
    same integer-weighted sums of the same terms, which the one product
    of the counts with the rowwise outer products may add in another
    order at their new positions: a relative perturbation of a few eps.
    Each pencil of the stack is factored, solved, judged and normalized on
    its own, so the single fit's argument bounds each row by a small
    multiple of eps * kappa(rho_r), with that row's own condition, and
    every row keeps its DISCARD_REASON entry (checked). Under recursive
    preferences the relation does not hold at this bound: where a count
    row's continuation value at a drawn pair is about 1e-4 times its
    median, m_t divides by it and turns the last-bit differences of chi
    into differences of m of up to about 1e-10 relative, far above the few
    eps the argument needs, so recursive count rows are not tested here.
    """
    rng = np.random.default_rng(seed)
    x1 = s.simulate_ar1(TESTBED, n, rng).states[:, 0]
    x2 = s.simulate_ar1(s.Ar1Design(mu=0.0, kappa=0.3, sigma=0.02), n, rng).states[:, 0]
    growth = np.exp(x1[1:])
    counts = _block_counts(n, 6.0, seed, range(64))
    prefs = s.PowerUtility(BETA, GAMMA)

    def fit(states):
        design = s.Design(spec.build(states), s.StatePanel.from_states(states, growth=growth))
        rows = CountRows(design, counts)
        return rows, fit_stack(rows, prefs)

    rows, base = fit(np.column_stack([x1, x2]))
    _, swapped = fit(np.column_stack([x2, x1]))
    np.testing.assert_array_equal(swapped.reason, base.reason)
    kept = base.reason == ""
    rho, kappa = base.eig.rho[kept], _relative_condition(rows, base)[kept]
    assert np.all(np.abs(swapped.eig.rho[kept] - rho) <= SWAP_BOUND * EPS * kappa * rho)
