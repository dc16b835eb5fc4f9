"""Largest-eigenvalue solver for the sample generalized eigenproblem.

Solves M c = rho G c together with the adjoint problem c*' M = rho c*' G,
selects the largest real positive eigenvalue, and normalizes scale and
sign. A pencil with no real simple positive eigenvalue is flagged with
the rule it failed, so that downstream statistics can censor such fits;
a single fit then falls back to the trivial pair (rho, phi, phi*) =
(1, 1, 1). A pencil whose G cannot be factored fails its own fit as
GRAM_NOT_SPD, and one whose M is not finite as PRICING_NOT_FINITE.
One stacked solver, which whitens each pencil by the Cholesky factor of
G, serves a single fit and every bootstrap replicate alike.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: relative threshold below which an imaginary part is rounding noise
REALITY_TOL = 1e-8
#: relative separation under which the top eigenvalue is treated as non-simple
TIE_TOL = 1e-10
#: the acceptance rules in the order they are checked; a rejected
#: eigenpair records the first rule it failed as its fallback reason
FALLBACK_REASONS = ("no_positive_real", "tie", "left_mismatch", "residual")
#: the reason, checked first and no fallback, of a G not finite or not SPD after the ridge
GRAM_NOT_SPD = "gram_not_spd"
#: the reason, checked second and no fallback, of an M with a non-finite entry
PRICING_NOT_FINITE = "pricing_not_finite"


class GramFactor(NamedTuple):
    """The SPD factor of an (S, k, k) Gram stack, from :func:`_cholesky_stack`.

    ``G`` holds the symmetrized matrices, ridged where that was needed, and
    ``Li`` the inverses of their lower-triangular Cholesky factors L, with
    G = L L'. ``ok`` marks the matrices that factored, ridge included; the
    others' ``G`` and ``Li`` are the identity, a finite placeholder.
    """

    G: np.ndarray  # (S, k, k)
    Li: np.ndarray  # (S, k, k) L^-1
    ok: np.ndarray  # (S,) bool


def _cholesky_stack(G: np.ndarray) -> GramFactor:
    """Symmetrize and Cholesky-factor each matrix of an (S, k, k) Gram stack.

    This is the only code that factors a Gram matrix. A G that is not
    positive definite gets one ridge of 1e-10 trace(G)/k and is factored
    again; one that still fails or is not finite is marked in ``ok``.
    """
    G = np.asarray(G, dtype=float)
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    eye = np.eye(G.shape[-1])
    ok = np.all(np.isfinite(G), axis=(1, 2))  # cholesky does not raise on these
    G[~ok] = eye
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        # some matrix failed: factor each on its own, ridging the ones that fail
        L = np.empty_like(G)
        for s, g in enumerate(G):
            try:
                L[s] = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                g += 1e-10 * np.trace(g) / len(g) * eye
                try:
                    L[s] = np.linalg.cholesky(g)
                except np.linalg.LinAlgError:
                    g[...], L[s], ok[s] = eye, eye, False
    return GramFactor(G, np.linalg.inv(L), ok)


class _PencilStack(NamedTuple):
    """Per-pencil results of :func:`_solve_stack`.

    ``reason`` is "" for an accepted pencil and otherwise GRAM_NOT_SPD,
    PRICING_NOT_FINITE or the first rule of FALLBACK_REASONS it failed;
    the other fields of a rejected pencil are meaningless. ``gap`` is NaN
    with fewer than two real eigenvalues.
    """

    rho: np.ndarray  # (S,)
    right: np.ndarray  # (S, k), unit 2-norm
    left: np.ndarray  # (S, k), unit 2-norm
    residuals: np.ndarray  # (S, 2)
    gap: np.ndarray  # (S,)
    reason: np.ndarray  # (S,) str


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (A @ v[..., None])[..., 0]


def _row(record, i: int):
    """Row i of a stacked record: each array field at i, each nested record's row i, None kept.

    A single fit is row 0 of its stack.
    """
    return type(record)._make(
        f if f is None else _row(f, i) if isinstance(f, tuple) else f[i] for f in record
    )


def _unwhiten_rows(Li: np.ndarray, X: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Coefficients L^-' x of one eigenvector row x per pencil, from the (S, k) rows X.

    eig returns real vectors for a pencil whose eigenvalues are all real,
    but complex ones for the whole stack once one pencil has a complex
    eigenvalue, and BLAS sums a strided real part in another order. Each
    pencil's row is read in the layout its own solve returns, so its
    coefficients do not depend on the other pencils of the stack.
    """
    cplx = np.any(vals.imag != 0, axis=1)
    out = np.empty(X.shape)
    for rows, contiguous in ((~cplx, True), (cplx, False)):
        if rows.any():
            x = X[rows].real  # a strided view where X is complex
            out[rows] = _matvec(
                np.swapaxes(Li[rows], -1, -2), np.ascontiguousarray(x) if contiguous else x
            )
    return out


def _residuals_pass(
    M: np.ndarray, G: np.ndarray, rho: np.ndarray, residuals: np.ndarray
) -> np.ndarray:
    """Whether both (S, 2) residuals of each pencil lie below 1e-8 (|M|_2 + rho |G|_2).

    The spectral norms are the square root of the top eigenvalue of the
    symmetric M'M and the top eigenvalue of G, from ``eigvalsh``. M's
    largest column norm plus rho times G's largest diagonal entry is a
    lower bound of that scale where rho > 0, so a pencil whose residuals
    lie below 1e-8 (1 - 1e-6) times the bound passes without them; the
    margin covers the rounding of both scales. Only the other pencils get
    the two ``eigvalsh`` calls, and every pencil gets the decision of the
    exact scale.
    """
    bound = (np.sqrt(np.max(np.einsum("sij,sij->sj", M, M), axis=1))
             + rho * np.max(np.diagonal(G, axis1=1, axis2=2), axis=1))
    ok = (rho > 0) & np.all(residuals < (1e-8 * (1.0 - 1e-6) * bound)[:, None], axis=1)
    rest = np.flatnonzero(~ok)
    if rest.size:
        Mr = M[rest]
        scale = (np.sqrt(np.linalg.eigvalsh(np.swapaxes(Mr, -1, -2) @ Mr)[:, -1])
                 + rho[rest] * np.linalg.eigvalsh(G[rest])[:, -1])
        ok[rest] = np.all(residuals[rest] < 1e-8 * scale[:, None], axis=1)
    return ok


def _solve_stack(M: np.ndarray, factor: GramFactor) -> _PencilStack:
    """Largest real positive eigenpair of each pencil (M, G) in a (S, k, k) stack.

    ``factor`` is the :func:`_cholesky_stack` record of the G stack. With
    G = L L', the pencil (M, G) has the eigenvalues of the whitened matrix
    A = L^-1 M L^-'; A's eigenvectors v give the right coefficients L^-' v
    and those of A' the adjoint ones. A pencil whose G did not factor is
    GRAM_NOT_SPD, one whose M is not finite PRICING_NOT_FINITE; both are
    solved with M = 0, so eig sees finite input. The acceptance rules
    (reality, positivity, simplicity, adjoint match, residuals) judge
    every other pencil on its own.
    """
    G, Li, ok = factor
    finite = np.all(np.isfinite(M), axis=(1, 2))
    M = np.where((ok & finite)[:, None, None], M, 0.0)
    Lit = np.swapaxes(Li, -1, -2)
    Mt = np.swapaxes(M, -1, -2)
    vals, vecs = np.linalg.eig(Li @ M @ Lit)
    vals_t, vecs_t = np.linalg.eig(Li @ Mt @ Lit)
    s = np.arange(M.shape[0])

    real = np.abs(vals.imag) <= REALITY_TOL * (1.0 + np.abs(vals.real))
    pos = real & (vals.real > 0)
    top = np.argmax(np.where(pos, vals.real, -np.inf), axis=1)
    rho = vals.real[s, top]

    # Simplicity: any other eigenvalue (real or complex) within TIE_TOL
    # relative distance of rho triggers the fallback convention.
    dist = np.abs(vals - rho[:, None])
    dist[s, top] = np.inf
    tie = dist.min(axis=1) <= TIE_TOL * np.abs(rho)

    match = np.argmin(np.abs(vals_t - rho[:, None]), axis=1)
    mismatch = np.abs(vals_t[s, match] - rho) > 1e-8 * (1.0 + np.abs(rho))

    right = _unwhiten_rows(Li, vecs[s, :, top], vals)
    left = _unwhiten_rows(Li, vecs_t[s, :, match], vals_t)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    left /= np.linalg.norm(left, axis=1, keepdims=True)

    res_r = np.linalg.norm(_matvec(M, right) - rho[:, None] * _matvec(G, right), axis=1)
    res_l = np.linalg.norm(_matvec(Mt, left) - rho[:, None] * _matvec(G, left), axis=1)
    residuals = np.column_stack([res_r, res_l])

    real_sorted = np.sort(np.where(real, vals.real, -np.inf), axis=1)
    second = real_sorted[:, -2] if real_sorted.shape[1] > 1 else np.nan
    gap = np.where(real.sum(axis=1) >= 2, rho - second, np.nan)
    reason = np.select(
        [~ok, ~finite, ~pos.any(axis=1), tie, mismatch, ~_residuals_pass(M, G, rho, residuals)],
        (GRAM_NOT_SPD, PRICING_NOT_FINITE) + FALLBACK_REASONS, default="",
    )
    return _PencilStack(rho, right, left, residuals, gap, reason)


def _normalize_stack(
    right: np.ndarray, left: np.ndarray, G: np.ndarray, const: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale and sign conventions for the (S, k) coefficient rows of S pencils.

    Scales each right row c so c'Gc = 1 (unit empirical norm of the
    eigenfunction), then its left row c* so c*'Gc = 1 (unit empirical
    inner product), and flips both signs jointly so that the empirical
    mean of the eigenfunction is non-negative. Idempotent.

    Returns the normalized right and left rows, and two (S,) masks of the
    defective rows: a right row with non-positive G-norm, and a left row
    G-orthogonal to its right row. Those rows' results are meaningless.
    """

    def form(a, b):  # a_s' G_s b_s for every row s
        return (a[:, None, :] @ G @ b[:, :, None])[:, 0, 0]

    with np.errstate(divide="ignore", invalid="ignore"):
        scale = form(right, right)
        c = right / np.sqrt(scale)[:, None]
        cross = form(left, c)
        cs = left / cross[:, None]
        # With the constant function in the basis span, const'Gc is exactly
        # the sample mean of the eigenfunction.
        flip = form(np.broadcast_to(const, c.shape), c) < 0
    c[flip], cs[flip] = -c[flip], -cs[flip]
    return c, cs, scale <= 0, cross == 0.0
