import warnings

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.pfeig import (FALLBACK_REASONS, GRAM_NOT_SPD, _cholesky_stack, _residuals_pass,
                               _solve_stack)
from sdfspectral.preferences import power_utility_sdf
from sdfspectral.sievemat import CountRows

from reference_maps import stationary_bootstrap_indices

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i


def _pencils():
    """The test_pfeig pencils, padded into 3 x 3 blocks so they stack."""
    rng = np.random.default_rng(12)
    S = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    raw = [
        (np.diag([2.0, 1.0]), np.eye(2)),  # diagonal
        (ROTATION, np.eye(2)),  # complex pair: no real eigenvalue
        (np.eye(3), np.eye(3)),  # tied identity
        (np.diag([0.5, 0.0]), np.diag([1.0, 0.0])),  # semidefinite G: needs the ridge
        (S.T @ np.diag([3.0, 1.0, 0.5]) @ S, S.T @ S),  # a similarity transform
        (np.diag([0.5, 1.0, 2.0]), np.eye(3)),  # the top eigenvalue comes last
    ]
    out = []
    for M, G in raw:
        k = M.shape[0]
        Mp, Gp = np.zeros((3, 3)), np.eye(3)
        Mp[:k, :k], Gp[:k, :k] = M, G
        if k == 2:
            Mp[2, 2] = 0.1  # a small eigenvalue below the top one
        if np.array_equal(M, ROTATION):
            Mp[2, 2] = -0.1  # keep every real eigenvalue non-positive
        out.append((Mp, Gp))
    return out


def _count_pencils(testbed, k, rounded=False, rows=64):
    """The pricing and Gram stacks of count rows of the seed-0 testbed panel (n = 800).

    The power SDF has beta = 0.994 and gamma = 15 on a Hermite sieve of k
    functions; the rows are stationary-bootstrap draws of default_rng(0).
    ``rounded`` rounds the state to 0.01, which leaves 9 distinct values.
    """
    panel = s.simulate_ar1(testbed, 800, 0)
    if rounded:
        states = np.round(panel.states, 2)
        panel = s.StatePanel.from_states(states, growth=np.exp(states[1:]))
    with warnings.catch_warnings():  # k = 9 on 9 state values: a singular Gram matrix
        warnings.simplefilter("ignore")
        design = s.Design(s.BasisSpec(family="hermite", k=k).build(panel.states), panel)
    rng = np.random.default_rng(0)
    counts = np.array([np.bincount(stationary_bootstrap_indices(panel.n, 6.0, rng),
                                   minlength=panel.n) for _ in range(rows)])
    m = np.broadcast_to(power_utility_sdf(panel.growth, 0.994, 15.0), counts.shape)
    rows = CountRows(design, counts)
    return s.estimate_pricing(rows, m), rows.gram


def _assert_rows_equal(stack, one, i):
    for field, a, b in zip(stack._fields, stack, one):
        np.testing.assert_array_equal(a[i], b[0], err_msg=f"{field} of pencil {i}")


def test_stack_matches_single_solves():
    # each pencil of the stack is solved as a stack of its own, bit for bit
    pencils = _pencils()
    stack = _solve_stack(np.stack([M for M, _ in pencils]),
                         _cholesky_stack(np.stack([G for _, G in pencils])))
    for i, (M, G) in enumerate(pencils):
        one = _solve_stack(M[None], _cholesky_stack(G[None]))
        assert one.reason[0] == stack.reason[i]
        if one.reason[0]:
            continue
        assert stack.rho[i] == one.rho[0]
        np.testing.assert_array_equal(stack.right[i], one.right[0])
        np.testing.assert_array_equal(stack.left[i], one.left[0])
        np.testing.assert_array_equal(stack.residuals[i], one.residuals[0])
        np.testing.assert_array_equal(stack.gap[i], one.gap[0])
    # the ridge and the fallbacks act on their own pencils only
    assert stack.rho[0] == pytest.approx(2.0, abs=1e-12)
    assert stack.rho[3] == pytest.approx(0.5, rel=1e-6)
    assert stack.rho[4] == pytest.approx(3.0, rel=1e-10)
    assert stack.rho[5] == pytest.approx(2.0, abs=1e-12)
    assert list(stack.reason) == ["", "no_positive_real", "tie", "", "", ""]


def test_gram_matrix_the_ridge_cannot_rescue_is_marked():
    # diag(1, -1) has trace 0, so its ridge is 0 and its second factoring fails too;
    # cholesky returns a factor of a non-finite matrix without raising
    G = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.diag([np.inf, 1.0]),
                  np.array([[1.0, np.nan], [np.nan, 1.0]])])
    factor = _cholesky_stack(G)
    assert factor.ok.tolist() == [True, False, False, False]
    np.testing.assert_array_equal(factor.Li[0], np.linalg.inv(np.linalg.cholesky(np.eye(2))))
    # the others get the identity as a finite placeholder factor
    np.testing.assert_array_equal(factor.G[1:], np.broadcast_to(np.eye(2), (3, 2, 2)))
    np.testing.assert_array_equal(factor.Li[1:], np.broadcast_to(np.eye(2), (3, 2, 2)))
    # their pencils fail as gram_not_spd, also with a non-finite M, and the first is solved
    M = np.stack([np.diag([2.0, 1.0]), np.diag([2.0, 1.0]), np.full((2, 2), np.inf),
                  np.full((2, 2), np.nan)])
    stack = _solve_stack(M, factor)
    assert list(stack.reason) == ["", GRAM_NOT_SPD, GRAM_NOT_SPD, GRAM_NOT_SPD]
    assert GRAM_NOT_SPD not in FALLBACK_REASONS
    assert stack.rho[0] == 2.0


def test_fallback_reasons_are_distinct():
    rotation = _solve_stack(ROTATION[None], _cholesky_stack(np.eye(2)[None])).reason[0]
    tied = _solve_stack(np.eye(3)[None], _cholesky_stack(np.eye(3)[None])).reason[0]
    assert rotation == "no_positive_real"
    assert tied == "tie"
    assert set(FALLBACK_REASONS) >= {rotation, tied}
    diagonal = _solve_stack(np.diag([2.0, 1.0])[None], _cholesky_stack(np.eye(2)[None]))
    assert diagonal.reason[0] == ""


@pytest.mark.parametrize("k", [8, 10])
def test_mixed_layout_stack_matches_single_solves(testbed, k):
    # eig returns complex vectors for a stack once one pencil has a complex
    # eigenvalue; each pencil's rows still equal those of its stack of one.
    # k = 8 catches a single complex-typed solve of all adjoint rows, and
    # k = 10 a read of every row in one layout
    M, G = _count_pencils(testbed, k, rows=8)
    Li = _cholesky_stack(G).Li
    vals = np.linalg.eigvals(Li @ M @ np.swapaxes(Li, -1, -2))
    assert np.all(np.any(vals.imag != 0, axis=1))  # every count-row pencil is complex
    M = np.concatenate([M, 0.5 * (M + np.swapaxes(M, -1, -2))])  # and real copies
    G = np.concatenate([G, G])
    stack = _solve_stack(M, _cholesky_stack(G))
    for i in range(len(M)):
        _assert_rows_equal(stack, _solve_stack(M[i:i + 1], _cholesky_stack(G[i:i + 1])), i)


def test_left_mismatch_catches_what_the_residuals_pass(testbed):
    # with 9 state values a k = 9 sieve leaves some count-row pencils whose
    # adjoint eigenvalue nearest rho is another one, with tiny residuals
    M, G = _count_pencils(testbed, 9, rounded=True)
    factor = _cholesky_stack(G)
    stack = _solve_stack(M, factor)
    norm = np.linalg.norm
    scale = norm(M, ord=2, axis=(1, 2)) + stack.rho * norm(factor.G, ord=2, axis=(1, 2))
    passes_residual = np.all(stack.residuals < 1e-8 * scale[:, None], axis=1)
    assert np.any((stack.reason == "left_mismatch") & passes_residual)


@pytest.mark.parametrize("count_rows", [None, (8, False), (10, False), (9, True)],
                         ids=["pencils", "k8", "k10", "rounded_k9"])
def test_residual_scale_matches_the_svd_norms(testbed, count_rows):
    # the residual rule's scale |M|_2 + rho |G|_2 takes the spectral norms from
    # eigvalsh of M'M and G, for the pencils whose residuals its lower bound
    # does not pass (test_residual_bound_keeps_the_eigvalsh_decision); they
    # agree with the SVD's to 1e-14 relative, and the rule keeps every
    # pencil's reason under the SVD's scale. rounded_k9 is the stack of
    # test_left_mismatch_catches_what_the_residuals_pass
    if count_rows is None:
        M, G = (np.stack(a) for a in zip(*_pencils()))
    else:
        k, rounded = count_rows
        M, G = _count_pencils(testbed, k, rounded=rounded)
    factor = _cholesky_stack(G)
    sv = np.linalg.svd(np.stack([M, factor.G], axis=1), compute_uv=False)[..., 0]
    norm_m = np.sqrt(np.linalg.eigvalsh(np.swapaxes(M, -1, -2) @ M)[:, -1])
    norm_g = np.linalg.eigvalsh(factor.G)[:, -1]
    np.testing.assert_allclose(norm_m, sv[:, 0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(norm_g, sv[:, 1], rtol=1e-14, atol=0)

    st = _solve_stack(M, factor)
    svd_fails = ~np.all(st.residuals < 1e-8 * (sv[:, 0] + st.rho * sv[:, 1])[:, None], axis=1)
    reached = np.isin(st.reason, ["", "residual"])  # pencils that passed the earlier rules
    np.testing.assert_array_equal(st.reason == "residual", reached & svd_fails)


def _eigvalsh_scale(M, G, rho):
    """|M|_2 + rho |G|_2, the norms from eigvalsh of M'M and G."""
    return np.sqrt(np.linalg.eigvalsh(np.swapaxes(M, -1, -2) @ M)[:, -1]) + rho * np.linalg.eigvalsh(G)[:, -1]


def test_residual_bound_keeps_the_eigvalsh_decision(testbed, monkeypatch):
    # residuals at and around the exact threshold and the lower bound's, on
    # the test_pfeig pencils and 16 count-row pencils, with rho from the
    # solve, zero, negative or NaN: the bounded rule decides as eigvalsh does
    pairs = _pencils()
    M_count, G_count = _count_pencils(testbed, 3, rows=16)
    M = np.concatenate([np.stack([M for M, _ in pairs]), M_count])
    G = _cholesky_stack(np.concatenate([np.stack([G for _, G in pairs]), G_count])).G
    rho = _solve_stack(M, _cholesky_stack(G)).rho
    exact = _eigvalsh_scale(M, G, rho)
    bound = np.linalg.norm(M, axis=1).max(axis=1) + rho * np.diagonal(G, axis1=1, axis2=2).max(axis=1)
    pos = rho > 0
    assert pos[len(pairs):].all() and np.all(bound[pos] <= exact[pos])
    edge = 1e-8 * (1.0 - 1e-6) * bound
    levels = [c * 1e-8 * exact for c in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0)]
    levels += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    seen = set()
    for rho_case in (rho, np.zeros_like(rho), -rho, np.full_like(rho, np.nan)):
        for a in levels:
            for b in levels[:1] + [a, np.full_like(a, np.nan)]:
                for res in (np.column_stack([a, b]), np.column_stack([b, a])):
                    got = _residuals_pass(M, G, rho_case, res)
                    scale = _eigvalsh_scale(M, G, rho_case)
                    np.testing.assert_array_equal(got, np.all(res < 1e-8 * scale[:, None], axis=1))
                    seen.update(got.tolist())
    assert seen == {True, False}

    # the residuals that the bound passes need no spectrum
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert _residuals_pass(M_count, G[len(pairs):], rho[len(pairs):],
                           np.column_stack([edge, edge])[len(pairs):] / 2).all()


def test_left_rows_match_a_40_digit_reference(testbed):
    mp = pytest.importorskip("mpmath").mp
    M, G = _count_pencils(testbed, 8, rows=10)
    checked = 0
    for Mi, Gi in _pencils() + list(zip(M, G)):
        factor = _cholesky_stack(Gi[None])
        st = _solve_stack(Mi[None], factor)
        if st.reason[0]:
            continue
        # the eigenvector of G^-1 M' whose eigenvalue is nearest rho
        with mp.workdps(40):
            vals, vecs = mp.eig(mp.inverse(mp.matrix(factor.G[0].tolist()))
                                * mp.matrix(Mi.T.tolist()))
        j = min(range(len(vals)), key=lambda i: abs(vals[i] - float(st.rho[0])))
        ref = np.array([complex(vecs[i, j]) for i in range(len(vals))])
        ref = (ref / ref[np.argmax(np.abs(ref))]).real
        ref /= np.linalg.norm(ref)
        left = st.left[0] * np.sign(st.left[0] @ ref)
        assert np.max(np.abs(left - ref)) <= 1e-12
        checked += 1
    assert checked == 4 + 10
