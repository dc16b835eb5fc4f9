import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermeval

import sdfspectral as s
from sdfspectral.basis import BasisSpec

from reference_maps import hermite_basis

rng = np.random.default_rng(0)
DATA = rng.normal(0.005, 0.0125, 400)


# ------------------------------------------------------------------ hermite


def test_hermite_dimension_and_order():
    b = BasisSpec(family="hermite", degree=7).build(DATA)
    assert b.dimension_k == 8
    assert b.index_tuples[0] == (0,)


def test_hermite_values_at_mean():
    # He_j(0)/sqrt(j!) pattern: 1, 0, -1/sqrt(2), 0, 3/sqrt(24), 0, -15/sqrt(720), 0
    b = BasisSpec(family="hermite", degree=7).build(DATA)
    expected = [1.0, 0.0, -1 / math.sqrt(2), 0.0, 3 / math.sqrt(24), 0.0,
                -15 / math.sqrt(720), 0.0]
    np.testing.assert_allclose(b.evaluate_many([DATA.mean()])[0], expected, atol=1e-12)


def test_hermite_matches_reference_recurrence():
    # independent oracle: numpy's probabilists' Hermite evaluation
    b = BasisSpec(family="hermite", degree=7).build(DATA)
    mean, sd = b.standardization[0]
    xs = rng.normal(0.005, 0.03, 50)
    vals = b.evaluate_many(xs)
    for j in range(8):
        coef = np.zeros(j + 1)
        coef[j] = 1.0
        ref = hermeval((xs - mean) / sd, coef) / math.sqrt(math.factorial(j))
        np.testing.assert_allclose(vals[:, j], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("degree", range(11))
def test_univariate_values_equal_the_product_path(degree):
    # degrees 0..d of one coordinate take the copy of the Hermite table; the
    # same degrees paired with degree 0 of a second coordinate take the
    # product of ones with the table's columns
    from sdfspectral.basis import _polynomial_values

    gen = np.random.default_rng(degree)
    tuples = tuple((j,) for j in range(degree + 1))
    for z in (3.0 * gen.standard_normal(50), 3.0 * gen.standard_normal((4, 30))):
        products = _polynomial_values(np.stack([z, z], axis=-1), tuple((j, 0) for j, in tuples))
        np.testing.assert_array_equal(_polynomial_values(z[..., None], tuples), products)
        out, table = np.empty(z.shape + (degree + 1,)), np.empty((degree + 1,) + z.shape)
        assert _polynomial_values(z[..., None], tuples, out, table) is out
        np.testing.assert_array_equal(out, products)


def test_hermite_gram_near_identity():
    # the degree-7 diagonal entry has a heavy-tailed summand, so the
    # entrywise 0.05 tolerance needs several million draws
    gen = np.random.default_rng(1)
    b = hermite_basis(0.0, 1.0, 7)
    gram = np.zeros((8, 8))
    n = 0
    for _ in range(8):
        V = b.evaluate_many(gen.standard_normal(1_000_000))
        gram += V.T @ V
        n += 1_000_000
    np.testing.assert_allclose(gram / n, np.eye(8), atol=0.05)


def test_hermite_degenerate_data_names_coordinate():
    data = np.column_stack([rng.normal(size=10), np.ones(10)])
    with pytest.raises(ValueError, match="coordinate 1"):
        BasisSpec(family="hermite", degree=3).build(data)


def test_stack_rows_without_sample_variance_fail():
    samples = np.random.default_rng(5).normal(0.005, 0.01, (3, 201))
    samples[1] = 0.005  # a sample sd of 8.7e-19: rounding error, not variance
    samples[2] = 1.0
    values, _, failed = BasisSpec(family="hermite", k=4).evaluate_stack(samples, np.zeros(2))
    assert failed.tolist() == [False, True, True]
    assert np.isnan(values[1:]).all() and np.isfinite(values[0]).all()


def test_bspline_stack_censors_the_row_whose_knots_tie():
    gen = np.random.default_rng(6)
    samples = gen.normal(size=(3, 60))
    samples[1, :50] = 0.0  # its interior knots, quantiles of the sample, coincide
    points = np.linspace(-1.0, 1.0, 5)
    spec = BasisSpec(family="bspline", k=7)
    values, const, failed = spec.evaluate_stack(samples, points)
    assert failed.tolist() == [False, True, False] and values.shape == (3, 65, 7)
    assert np.isnan(values[1]).all()
    for r in (0, 2):
        basis = spec.build(samples[r])
        at = np.concatenate([samples[r], points])
        np.testing.assert_array_equal(values[r], basis.evaluate_many(at))
        np.testing.assert_array_equal(const, basis.const_coeffs)


@pytest.mark.parametrize("spec", [BasisSpec(family="bspline", k=7),
                                  BasisSpec(family="hermite", k=4)],
                         ids=["bspline_tied", "hermite_constant"])
def test_stack_where_no_row_builds_has_no_columns(spec):
    samples = np.zeros((3, 60))
    if spec.family == "bspline":  # ties in every row, not constant ones
        samples[:, 50:] = np.random.default_rng(7).normal(size=(3, 10))
    else:
        samples += np.arange(3.0)[:, None]
    values, const, failed = spec.evaluate_stack(samples, np.zeros(2))
    assert values.shape == (3, 62, 0) and const.shape == (0,)
    assert failed.all()


def test_polynomial_degree_above_170_is_named():
    # the scale sqrt(171!) of He_171 is no float
    with pytest.raises(ValueError, match="degree 171"):
        BasisSpec(family="hermite", k=172).build(DATA)
    with pytest.raises(ValueError, match="degree 171"):
        BasisSpec(family="sparse", degree=171, cap=3).build(DATA)
    assert BasisSpec(family="hermite", degree=170).build(DATA).dimension_k == 171
    assert BasisSpec(family="sparse", degree=170, cap=3).build(DATA).dimension_k == 3


def test_hermite_needs_two_observations():
    with pytest.raises(ValueError):
        BasisSpec(family="hermite", degree=3).build(np.array([1.0]))


def test_evaluate_rejects_non_finite():
    b = BasisSpec(family="hermite", degree=3).build(DATA)
    with pytest.raises(ValueError):
        b.evaluate_many([np.nan])


def test_evaluate_is_pure():
    b = BasisSpec(family="hermite", degree=7).build(DATA)
    x = np.array([0.0123])
    first = b.evaluate_many(x).copy()
    for _ in range(3):
        assert np.array_equal(b.evaluate_many(x), first)


def test_constant_representable_all_families():
    xs = rng.normal(0.0, 1.0, 300)
    bases = [
        BasisSpec(family="hermite", degree=5).build(xs),
        BasisSpec(family="bspline", k=8).build(xs),
        s.BasisSpec(family="sparse", degree=4, cap=5).build(np.column_stack([xs, xs + 1])),
    ]
    for b in bases:
        pts = rng.normal(0.0, 1.0, (20, b.state_dim))
        np.testing.assert_allclose(
            b.evaluate_many(pts) @ b.const_coeffs, np.ones(20), atol=1e-12
        )


# ------------------------------------------------------------------ bspline


def test_bspline_quantile_knots():
    b = BasisSpec(family="bspline", k=8).build(DATA)
    np.testing.assert_allclose(
        b.knots[4:-4], np.quantile(DATA, [0.2, 0.4, 0.6, 0.8]), rtol=1e-14
    )
    assert b.dimension_k == 8


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-0.2, max_value=0.2, allow_nan=False))
def test_bspline_partition_of_unity(x):
    b = BasisSpec(family="bspline", k=8).build(DATA)
    vals = b.evaluate_many([x])[0]  # includes points beyond the data range (clamped)
    assert abs(vals.sum() - 1.0) < 1e-12
    assert (vals >= 0).all()


def test_bspline_clamped_boundary():
    b = BasisSpec(family="bspline", k=8).build(DATA)
    left = b.evaluate_many([DATA.min()])[0]
    np.testing.assert_allclose(left, np.eye(8)[0], atol=1e-12)
    np.testing.assert_allclose(b.evaluate_many([DATA.min() - 10])[0], left, atol=1e-14)
    right = b.evaluate_many([DATA.max()])[0]
    np.testing.assert_allclose(b.evaluate_many([DATA.max() + 10])[0], right, atol=1e-14)
    np.testing.assert_allclose(right, np.eye(8)[-1], atol=1e-12)


def _deboor_reference(x, t, k):
    """Cox-de Boor recursion, written independently of the implementation."""
    nb = len(t) - k - 1
    vals = np.zeros(nb)
    B = np.zeros((len(t) - 1, k + 1))
    for i in range(len(t) - 1):
        B[i, 0] = 1.0 if (t[i] <= x < t[i + 1]) else 0.0
    if x >= t[-1]:  # right-edge convention: last nonempty interval is closed
        for i in range(len(t) - 2, -1, -1):
            if t[i] < t[i + 1]:
                B[i, 0] = 1.0
                break
    for d in range(1, k + 1):
        for i in range(len(t) - d - 1):
            left = 0.0
            if t[i + d] != t[i]:
                left = (x - t[i]) / (t[i + d] - t[i]) * B[i, d - 1]
            right = 0.0
            if t[i + d + 1] != t[i + 1]:
                right = (t[i + d + 1] - x) / (t[i + d + 1] - t[i + 1]) * B[i + 1, d - 1]
            B[i, d] = left + right
    vals[:] = B[:nb, k]
    return vals


def test_bspline_matches_deboor_reference():
    b = BasisSpec(family="bspline", k=8).build(DATA)
    for x in np.linspace(DATA.min(), DATA.max(), 23):
        ref = _deboor_reference(x, b.knots, 3)
        np.testing.assert_allclose(b.evaluate_many([x])[0], ref, atol=1e-12)


def test_bspline_values_equal_scipys_bit_for_bit():
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    # the first sample has an interior knot at exactly 0, where a -0.0 point
    # gives scipy a +0.0 value; a third of the seeded samples are rounded
    samples = [(np.arange(-50, 51) / 100, 5)]
    for seed in range(200):
        draw = np.random.default_rng(seed)
        k, n = int(draw.integers(5, 16)), int(draw.integers(20, 3001))
        x = draw.standard_normal(n) * draw.uniform(0.001, 3) + draw.uniform(-1, 1)
        samples.append((x.round(2) if seed % 3 == 0 else x, k))
    for x, k in samples:
        b = BasisSpec(family="bspline", k=k).build(x)
        t = b.knots
        # the sample, a grid beyond both ends (clamped), every knot and its negative
        points = np.concatenate([x, np.linspace(t[0] - 1, t[-1] + 1, 101), t, -t])
        ours = b.evaluate_many(points)
        theirs = BSpline.design_matrix(np.clip(points, t[0], t[-1]), t, 3).toarray()
        assert np.array_equal(ours, theirs), (k, x.size)
        assert np.array_equal(np.signbit(ours), np.signbit(theirs)), (k, x.size)


def test_bspline_duplicate_knots_error():
    tied = np.concatenate([np.zeros(50), np.ones(50)])
    with pytest.raises(ValueError, match="duplicate knots"):
        BasisSpec(family="bspline", k=8).build(tied)


def test_bspline_preconditions():
    with pytest.raises(ValueError):
        BasisSpec(family="bspline", k=4).build(DATA)
    with pytest.raises(ValueError):
        BasisSpec(family="bspline", k=8).build(DATA[:5])


# ------------------------------------------------------------- sparse tensor


def test_sparse_tensor_total_degree_truncation():
    # two order-5 univariate bases (degrees 0..4): full tensor 25, but
    # keeping total degree below 5 leaves the 15 complete-polynomial terms
    x = np.column_stack([rng.normal(size=200), rng.normal(size=200)])
    st8 = s.BasisSpec(family="sparse", degree=4, cap=5).build(x)
    assert st8.dimension_k == 15
    assert s.BasisSpec(family="sparse", degree=4, cap=100).build(x).dimension_k == 25


def test_sparse_tensor_degree_one_cap_two():
    x = np.column_stack([rng.normal(size=100), rng.normal(size=100)])
    st2 = s.BasisSpec(family="sparse", degree=1, cap=2).build(x)
    assert st2.dimension_k == 3
    assert set(st2.index_tuples) == {(0, 0), (0, 1), (1, 0)}


@pytest.mark.parametrize("deg,cap", [(2, 3), (3, 4), (4, 5), (5, 6), (3, 100)])
def test_sparse_tensor_count_law(deg, cap):
    x = np.column_stack([rng.normal(size=100), rng.normal(size=100)])
    built = s.BasisSpec(family="sparse", degree=deg, cap=cap).build(x)
    expected = sum(
        1 for j1 in range(deg + 1) for j2 in range(deg + 1) if j1 + j2 < cap
    )
    assert built.dimension_k == expected


def test_sparse_tensor_evaluates_products():
    x1, x2 = rng.normal(size=100), rng.normal(size=100)
    spec = BasisSpec(family="hermite", degree=2)
    b1, b2 = spec.build(x1), spec.build(x2)
    built = s.BasisSpec(family="sparse", degree=2, cap=100).build(np.column_stack([x1, x2]))
    x = np.array([0.3, -0.4])
    v1, v2 = b1.evaluate_many([x[0]])[0], b2.evaluate_many([x[1]])[0]
    for col, (j1, j2) in enumerate(built.index_tuples):
        assert built.evaluate_many(x[None])[0, col] == pytest.approx(v1[j1] * v2[j2], rel=1e-13)


def test_sparse_tensor_cap_validation():
    x = rng.normal(size=100)
    with pytest.raises(ValueError):
        s.BasisSpec(family="sparse", degree=2, cap=0).build(np.column_stack([x, x]))


# ------------------------------------------------------------------- spec


def test_basis_spec_round_trip():
    spec = BasisSpec(family="sparse", degree=4, cap=5)
    # the command line builds a spec from its basis section as keyword arguments
    assert BasisSpec(**dataclasses.asdict(spec)) == spec


def test_basis_spec_builds_families():
    xs2 = rng.normal(size=(300, 2))
    assert BasisSpec(family="hermite", k=8).build(DATA).dimension_k == 8
    assert BasisSpec(family="bspline", k=8).build(DATA).dimension_k == 8
    assert BasisSpec(family="sparse", degree=4, cap=5).build(xs2).dimension_k == 15


@pytest.mark.parametrize("call, message", [
    (lambda: BasisSpec("bspline", k=8).build(np.column_stack([DATA, DATA])),
     "bspline basis is univariate"),
    (lambda: BasisSpec("bspline").build(DATA), "bspline basis needs k"),
    (lambda: BasisSpec("hermite").build(DATA), "hermite basis needs k or degree"),
    (lambda: BasisSpec("hermite", k=0).build(DATA), r"hermite basis needs k >= 1 or degree >= 0"),
    (lambda: BasisSpec("sparse", cap=3).build(DATA), "sparse basis needs degree and cap"),
    (lambda: BasisSpec("sparse", degree=2).build(DATA), "sparse basis needs degree and cap"),
    (lambda: BasisSpec("fourier", k=4).build(DATA), "unknown basis family 'fourier'"),
    (lambda: BasisSpec("hermite", k=4).build(DATA).evaluate_many(np.zeros((3, 2))),
     r"expected points with 1 column\(s\), got 2"),
], ids=["bspline_bivariate", "bspline_without_k", "hermite_without_k_or_degree", "hermite_k_0",
        "sparse_without_degree", "sparse_without_cap", "unknown_family", "evaluate_columns"])
def test_basis_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
