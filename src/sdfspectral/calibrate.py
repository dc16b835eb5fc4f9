"""Preference-parameter estimation from instrumented Euler equations.

For each candidate (beta, gamma) the continuation value is profiled out
by solving the nonlinear eigenproblem, the implied SDF increments are
plugged into the pricing errors m_t R_{t+1} - 1, and the errors are
instrumented with basis functions of the current state. The criterion is
the trace of the Gram-pseudo-inverse-weighted quadratic form in the
instrumented moments; a coarse grid stage seeds a Nelder-Mead polish so
that inner-solver failures surface as infeasible grid points instead of
silent divergence. The polish is a private bounded Nelder-Mead that takes
scipy's ``minimize(method="Nelder-Mead", bounds=...)`` steps one for one,
with the same floating-point expressions, so no scipy module is loaded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .pfeig import GRAM_NOT_SPD, PRICING_NOT_FINITE, _row
from .sievemat import Design
from .valuefn import VALUE_FAILURES, FixedPointStack, recursive_sdf_stack, solve_value_stack

DEFAULT_BOUNDS = ((0.9, 0.9999), (1.0, 60.0))
#: (beta, gamma) points of the coarse grid stage
GRID_SHAPE = (11, 13)
#: points whose SDF series and moments are formed at once; bounds the (n, points) arrays
MOMENT_BLOCK = 16
#: Nelder-Mead tolerances on the point and on the criterion, and its iteration cap
XATOL = 1e-5
FATOL = 1e-12
MAX_ITER = 500


#: why a (beta, gamma) point is infeasible: GRAM_NOT_SPD, PRICING_NOT_FINITE, a failed
#: value recursion (VALUE_FAILURES), or a continuation value that is not positive on the sample
INFEASIBLE_REASONS = ((GRAM_NOT_SPD, PRICING_NOT_FINITE) + VALUE_FAILURES
                      + ("nonpositive_continuation",))


@dataclass
class CalibrationResult:
    """The estimate, its criterion and value recursion, and every evaluated point.

    ``inner_solution`` is the value recursion at the estimate, row 0 of
    its :class:`FixedPointStack`, or None where it did not converge.
    ``infeasible`` counts the infeasible evaluations, grid and simplex
    alike, by their INFEASIBLE_REASONS entry.
    """

    beta_hat: float
    gamma_hat: float
    criterion_value: float
    inner_solution: Optional[FixedPointStack]
    optimizer_trace: list[tuple[float, float, float]] = field(default_factory=list)
    converged: bool = False
    infeasible: dict[str, int] = field(default_factory=dict)


def criterion_grid(
    design: Design, instruments: Design, beta, gamma
) -> tuple[np.ndarray, np.ndarray]:
    """Criterion values at P (beta, gamma) points, from one stacked value-recursion solve.

    ``design`` is the panel's solve design and ``instruments`` the design
    of the instrument basis on the same panel; the criterion weights the
    instrumented moments by the pseudo-inverse of the instruments' Gram
    matrix. ``beta`` and ``gamma`` broadcast to the P points, so a single
    point is P = 1. Returns the values and each point's
    INFEASIBLE_REASONS entry ("" where feasible); an infeasible point, one
    whose value recursion fails or whose continuation value is not
    positive on the sample, has value +inf. The SDF series and the
    instrumented moments are formed as (n, points) arrays, MOMENT_BLOCK
    points at a time.
    """
    panel = design.panel
    if panel.returns is None:
        raise ValueError("panel has no returns; the criterion needs asset returns")
    if instruments.basis.dimension_k > design.basis.dimension_k:
        raise ValueError("instrument basis dimension exceeds the solve basis dimension")
    st = solve_value_stack(design, beta, gamma)
    reason = st.reason.copy()
    values = np.full(st.lam.size, math.inf)
    conv = np.flatnonzero(reason == "")
    for lo in range(0, conv.size, MOMENT_BLOCK):
        c = conv[lo:lo + MOMENT_BLOCK]
        # a block of every point is the stack itself
        m, reason[c] = recursive_sdf_stack(design, st if c.size == reason.size else _row(st, c))
        usable = reason[c] == ""
        ok, m = c[usable], m[:, usable]
        resid = m[:, :, None] * panel.returns[:, None, :]  # (n, points, returns)
        resid -= 1.0
        # the instrumented moments b0' resid / n, (instruments, points, returns)
        n, points, returns = resid.shape
        A = np.dot(instruments.b0.T, resid.reshape(n, points * returns)) / n
        A = A.reshape(len(A), points, returns)
        values[ok] = np.einsum("ipq,ij,jpq->p", A, instruments.gram_pinv, A)
    return values, reason


def estimate_preferences(
    design: Design,
    instruments: Design,
    bounds: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_BOUNDS,
) -> CalibrationResult:
    """Minimize the criterion over (beta, gamma) in a box.

    A coarse GRID_SHAPE grid locates a feasible starting point;
    :func:`_nelder_mead`, which follows scipy's bounded Nelder-Mead step
    for step, then polishes within the bounds; a box collapsed to one
    point returns that point. The grid is one :func:`criterion_grid` call
    and each simplex point a one-point call, and every evaluated point is
    traced and its reason counted alike. Raises when every grid point is
    infeasible (inner solver failed everywhere), naming the reasons counted.
    """
    (b_lo, b_hi), (g_lo, g_hi) = bounds
    if not (b_lo <= b_hi and g_lo <= g_hi):
        raise ValueError("bounds must be ordered")
    infeasible: Counter = Counter()
    trace: list[tuple[float, float, float]] = []

    def evaluate(betas, gammas) -> np.ndarray:
        values, reasons = criterion_grid(design, instruments, betas, gammas)
        infeasible.update(reasons[reasons != ""].tolist())
        trace.extend(zip(np.ravel(betas).tolist(), np.ravel(gammas).tolist(), values.tolist()))
        return values

    nb, ng = GRID_SHAPE
    betas, gammas = (
        a.ravel() for a in np.meshgrid(
            np.linspace(b_lo, b_hi, nb), np.linspace(g_lo, g_hi, ng), indexing="ij"
        )
    )
    values = evaluate(betas, gammas)
    # the first grid point of least value; NaN never wins
    best = int(np.argmin(np.where(np.isnan(values), math.inf, values)))
    if not math.isfinite(values[best]):
        raise RuntimeError("all grid points infeasible; inner solver failed everywhere "
                           f"({dict(sorted(infeasible.items()))})")
    x, crit_val, success = _nelder_mead(
        lambda point: float(evaluate(*point)[0]),
        np.array([betas[best], gammas[best]]),
        np.array([b_lo, g_lo]), np.array([b_hi, g_hi]),
    )
    beta_hat, gamma_hat = float(x[0]), float(x[1])
    success = success and math.isfinite(crit_val)

    inner = None
    if math.isfinite(crit_val):
        fp = _row(solve_value_stack(design, beta_hat, gamma_hat), 0)
        inner = fp if fp.reason == "" else None
    return CalibrationResult(
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        criterion_value=crit_val,
        inner_solution=inner,
        optimizer_trace=trace,
        converged=success,
        infeasible=dict(sorted(infeasible.items())),
    )


def _nelder_mead(func, x0, lower, upper) -> tuple[np.ndarray, float, bool]:
    """Bounded Nelder-Mead from ``x0``: the best point, its value, and whether it converged.

    Takes the steps of scipy 1.17.1's ``minimize(method="Nelder-Mead")``
    with ``bounds`` and the XATOL, FATOL and MAX_ITER options, in the same
    order and with the same numpy expressions, so it evaluates the same
    points and returns the same bits. The initial simplex steps each
    coordinate by 5 % (0.00025 from zero) and reflects vertices above the
    upper bound back into the box; every trial point is clipped to the
    box. A coordinate whose bounds coincide stays in the simplex. It
    converged when XATOL and FATOL were met within MAX_ITER iterations;
    there is no cap on evaluations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    def f(x):
        return func(np.copy(x))

    x0 = np.clip(x0, lower, upper)
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < MAX_ITER:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
        fxr = f(xr)
        doshrink = False
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:  # inside contraction
            xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            for j in range(1, N + 1):
                sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), iterations < MAX_ITER
