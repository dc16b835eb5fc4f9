"""Continuation values under unit-EIS recursive preferences.

The scaled value function solves a nonlinear fixed point of the form
h(x) = E[G'^{1-gamma} h(X')^beta | X = x]. Normalizing the unknown to
unit empirical norm turns this into a nonlinear eigenproblem solved by a
normalized power-type iteration; homogeneity of degree beta makes the
iteration insensitive to the scale of the starting vector. The iteration
runs in the coordinates that whiten the Gram matrix, stacked over
columns that each carry their own (beta, gamma) and, optionally, their
own count-weighted replicate of the sample.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from .pfeig import GRAM_NOT_SPD, PRICING_NOT_FINITE, _matvec
from .preferences import _growth_power
from .sievemat import CountRows, Design, DesignStack

#: the G-norm step below which a column of :func:`solve_value_stack` has converged
TOL = 1e-10
#: the iteration cap of a column of :func:`solve_value_stack`; one that stops here is unconverged
MAX_ITER = 10_000
#: why a column of :func:`solve_value_stack` has no solution ("" where it converged)
VALUE_FAILURES = ("invalid_parameters", "growth_overflow", "unconverged_value_recursion")


class FixedPointStack(NamedTuple):
    """Per-column results of :func:`solve_value_stack`, P columns.

    ``reason`` is "" for a converged column and otherwise GRAM_NOT_SPD,
    PRICING_NOT_FINITE or its VALUE_FAILURES entry. ``final_step`` is the
    G-norm distance between a column's last two normalized iterates. An
    unconverged column keeps its last iterate and eigenvalue; a column
    whose iterate degenerated (vanishing or non-finite G-norm) and the
    columns of the other reasons have NaN ``lam`` and ``chi_coeffs``.
    """

    lam: np.ndarray  # (P,)
    chi_coeffs: np.ndarray  # (P, k)
    beta: np.ndarray  # (P,)
    gamma: np.ndarray  # (P,)
    iterations: np.ndarray  # (P,) int
    final_step: np.ndarray  # (P,)
    reason: np.ndarray  # (P,) str


def _growth_weights(growth: Optional[np.ndarray], gamma: np.ndarray) -> np.ndarray:
    """G_{t+1}^{1-gamma}, as exp((1-gamma) log G), one row per gamma (inf where it overflows).

    A growth stack (one row per gamma) gives row r from its own row r.
    """
    with np.errstate(over="ignore"):
        return _growth_power(growth, np.asarray(1.0 - gamma)[..., None])


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a_p' b_p of a stack of matrices b, one per row."""
    return (a[..., None, :] @ b)[..., 0, :]


def solve_value_stack(
    design: Union[Design, DesignStack, CountRows],
    beta,
    gamma,
) -> FixedPointStack:
    """Solve the value recursion for P columns at once, each with its own (beta, gamma).

    ``beta`` and ``gamma`` broadcast to P entries. A column's rows are
    either shared, its own count-weighted replicate, or its own design:

    - of a :class:`Design`, every column uses the design's :attr:`whitening`;
    - of the :class:`CountRows` of P replicates, column r solves the
      count-weighted recursion of replicate r of the design: its map and
      Gram matrix weight transition pair t by counts[r, t], and it is
      whitened by its own Gram matrix's factor;
    - of a :class:`DesignStack` of R designs, column r solves the recursion
      of design r, on its whitened rows and growth series (P = R).

    T(v) = (1/n) sum_t b(X_t) G_{t+1}^{1-gamma} |b(X_{t+1})'v|^beta is the
    sample value-recursion map, positively homogeneous of degree beta in v.
    Each column iterates z_{j+1} = G^-1 T(y_j), with y_j the G-normalized
    z_j, from z_1 = G^-1 (mean basis vector); its eigenvalue is the G-norm
    of the last pre-normalization iterate. It runs in whitened coordinates
    u = L'z, where the G-norm is Euclidean and G^-1 T(y) is L^-1 T(y), and
    stops on its own convergence test (a G-norm step below TOL) or after
    MAX_ITER iterations, keeping its last iterate. gamma = 1 is the
    log-utility case, whose solution is the constant function with unit
    eigenvalue. A single solve is row 0 of a stack of one
    (:func:`pfeig._row`). The reported chi
    has a positive sample mean const'G chi: it is the normalized G^-1 T(y)
    of a nonnegative map, or at the first iteration the normalized G^-1
    (mean basis vector).
    Columns whose Gram matrix did not factor (GRAM_NOT_SPD), whose rows
    b(X_{t+1}) are not finite (PRICING_NOT_FINITE: they enter the map and
    the pricing matrix but not G), with beta outside (0, 1) or gamma < 1,
    or whose G^(1-gamma) overflows, are not iterated; their ``reason``
    names the first of these checks that they fail. Only a missing growth
    series raises.
    """
    stacked, rows = isinstance(design, DesignStack), isinstance(design, CountRows)
    replicates = (len(design.b0),) if stacked else (len(design.counts),) if rows else ()
    shape = np.broadcast(beta, gamma, np.empty(replicates)).shape
    beta, gamma = (np.full(shape, a, dtype=float).ravel() for a in (beta, gamma))
    p_cols, n, k = beta.size, design.n, design.b0.shape[-1]
    if rows and len(design.counts) != p_cols:
        raise ValueError(f"{len(design.counts)} count rows for {p_cols} columns")
    gw = _growth_weights(design.growth, gamma)  # (P, n)
    gw /= n
    gram_ok = design.factor.ok if stacked or rows else design.factor.ok[0]
    valid = (beta > 0) & (beta < 1) & (gamma >= 1)
    finite = np.isfinite(gw).all(axis=1)
    iterate = gram_ok & design.b1_finite & valid & finite
    reason = np.full(p_cols, "", dtype=object)
    if not iterate.all():
        # a column that fails several checks is named by the first
        for why, passed in (("growth_overflow", finite), ("invalid_parameters", valid),
                            (PRICING_NOT_FINITE, design.b1_finite), (GRAM_NOT_SPD, gram_ok)):
            reason[~passed] = why
    # Li holds per-column factors L^-1 of unwhitened count rows, None when
    # the rows are whitened already
    product = _row_product if stacked else np.matmul
    if not rows:
        wh = design.whitening
        r0, r1t, Li, u0 = wh.w0, wh.w1t, None, wh.mean
    else:
        w = design.counts
        Li = design.factor.Li
        r0, r1t = design.b0, np.ascontiguousarray(design.b1.T)
        gw *= w
        u0 = _matvec(Li, w @ r0 / n)

    lam = np.full(p_cols, np.nan)
    Y = np.full((p_cols, k), np.nan)  # each column's last normalized iterate
    iterations = np.zeros(p_cols, dtype=int)
    step = np.full(p_cols, np.inf)
    # the iterating columns and their data: growth weights, beta, and where
    # they differ across columns, L^-1 and the rows
    cols = np.flatnonzero(iterate)
    per_col = [gw, beta[:, None], Li, r0, r1t]
    varies = [True, True, Li is not None, stacked, stacked]
    if cols.size < p_cols:
        per_col = [a[cols] if v else a for a, v in zip(per_col, varies)]
    U = u0[cols] if u0.ndim > 1 else np.repeat(u0[None], cols.size, axis=0)
    Y_prev = None
    # a vanishing or non-finite G-norm makes a NaN step, which ends its column
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            nz = np.sqrt(np.einsum("pk,pk->p", U, U))
            Y_new = U / nz[:, None]
            if Y_prev is None:
                s = np.where(np.isfinite(nz) & (nz > 0), np.inf, np.nan)
            else:
                D = Y_new - Y_prev
                s = np.sqrt(np.einsum("pk,pk->p", D, D))
            # U = L^-1 T(v) of the columns' iterates
            gw_c, beta_c, Li_c, r0_c, r1t_c = per_col
            V = Y_new if Li_c is None else _matvec(np.swapaxes(Li_c, -1, -2), Y_new)
            A = product(V, r1t_c)
            np.abs(A, out=A)
            np.power(A, beta_c, out=A)
            A *= gw_c
            U = product(A, r0_c)
            del A  # the next iteration's (C, n) product can take its memory
            if Li_c is not None:
                U = _matvec(Li_c, U)
            going = s >= TOL
            if it < MAX_ITER and np.count_nonzero(going) == going.size:
                Y_prev = Y_new
                continue
            done = ~going if it < MAX_ITER else np.ones(cols.size, dtype=bool)
            fin = cols[done]
            iterations[fin], step[fin] = it, s[done]
            # lam is the G-norm of the last pre-normalization iterate
            ok = done & (nz > 0) & (nz < np.inf)
            U_ok = U[ok]
            Y[cols[ok]], lam[cols[ok]] = Y_new[ok], np.sqrt(np.einsum("pk,pk->p", U_ok, U_ok))
            if done.all():
                break
            keep = ~done
            cols, U, Y_prev = cols[keep], U[keep], Y_new[keep]
            per_col = [a[keep] if v else a for a, v in zip(per_col, varies)]

    reason[iterate & ~((step < TOL) & ~np.isnan(lam))] = "unconverged_value_recursion"
    # whitened rows u' = z'L map back to coefficient rows z' = u'L^-1
    chi = product(Y, wh.Li) if Li is None else _matvec(np.swapaxes(Li, -1, -2), Y)
    return FixedPointStack(
        lam=lam,
        chi_coeffs=chi,
        beta=beta,
        gamma=gamma,
        iterations=iterations,
        final_step=step,
        reason=reason,
    )


def recursive_sdf_stack(
    design: Union[Design, DesignStack, CountRows],
    fp: FixedPointStack,
) -> tuple[np.ndarray, np.ndarray]:
    """SDF increments of P solved value-recursion columns, and each column's reason.

    Column p holds m_t = (beta/lam) G_{t+1}^{-gamma} chi(X_{t+1})^beta / chi(X_t)
    with its own (beta, gamma, lam) and ``chi_coeffs[p]`` of ``fp``, on the
    design's rows or, of a :class:`DesignStack`, on design p's own rows and
    growth. The plug-in SDF exists only where chi is positive: a column is
    usable when chi > 0 at both states of every transition pair or, of
    :class:`CountRows`, of every pair that its replicate p draws. Returns
    the (n, P) increments, formed at those pairs of the usable columns and
    1 elsewhere, and the (P,) reasons: ``fp.reason``, with
    "nonpositive_continuation" for a solved column that is not usable.
    """
    stacked = isinstance(design, DesignStack)
    drawn = (design.counts > 0).T if isinstance(design, CountRows) else None
    growth = design.growth
    if growth is not None:  # a missing series is _growth_power's error
        # (n, P): column r of a stack from design r's own growth
        growth = growth.T if stacked else growth[:, None]
    if stacked:
        chi0, chi1 = (_matvec(b, fp.chi_coeffs).T for b in (design.b0, design.b1))
    else:
        chi0, chi1 = design.b0 @ fp.chi_coeffs.T, design.b1 @ fp.chi_coeffs.T
    positive = (chi0 > 0) & (chi1 > 0)
    if drawn is not None:
        positive |= ~drawn
    usable = positive.all(axis=0)
    reason = fp.reason.astype(object)
    use = usable if drawn is None else drawn & usable
    every = use.all()
    if not every:
        reason[(reason == "") & ~usable] = "nonpositive_continuation"
        chi0, chi1 = np.where(use, chi0, 1.0), np.where(use, chi1, 1.0)
    m = (fp.beta / fp.lam) * _growth_power(growth, -fp.gamma) * chi1**fp.beta / chi0
    return (m if every else np.where(use, m, 1.0)), reason
