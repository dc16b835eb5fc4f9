import numpy as np
import pytest

from sdfspectral.pfeig import FALLBACK_REASONS, _cholesky_stack, _solve_stack

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


def test_fallback_reasons_are_distinct():
    rotation = _solve_stack(ROTATION[None], _cholesky_stack(np.eye(2)[None])).reason[0]
    tied = _solve_stack(np.eye(3)[None], _cholesky_stack(np.eye(3)[None])).reason[0]
    assert rotation == "no_positive_real"
    assert tied == "tie"
    assert set(FALLBACK_REASONS) >= {rotation, tied}
    diagonal = _solve_stack(np.diag([2.0, 1.0])[None], _cholesky_stack(np.eye(2)[None]))
    assert diagonal.reason[0] == ""
